(** Unit tests for the collaborative scheduler (Algorithms 5–9), driven
    single-threaded through scripted scenarios. *)

open Tutil
module S = Scheduler

let ver t i = Blockstm_kernel.Version.make ~txn_idx:t ~incarnation:i

let task_pp ppf = function
  | S.Execution v -> Fmt.pf ppf "Execution%a" Blockstm_kernel.Version.pp v
  | S.Validation (v, w) ->
      Fmt.pf ppf "Validation%a@@w%d" Blockstm_kernel.Version.pp v w

(* The claim wave of a validation task is an implementation detail of the
   rolling-commit sweep; scripted expectations compare versions only. *)
let task_eq a b =
  match (a, b) with
  | S.Execution x, S.Execution y -> Blockstm_kernel.Version.equal x y
  | S.Validation (x, _), S.Validation (y, _) ->
      Blockstm_kernel.Version.equal x y
  | _ -> false

(* Expected-value shorthand: the wave is ignored by [task_eq]. *)
let validation v = S.Validation (v, 0)

(* Complete a validation of [ver t i] at claim wave 0 (the scripted
   scenarios using it never run the commit sweep). *)
let fin_val s t i ~aborted =
  S.finish_validation s ~version:(ver t i) ~wave:0 ~aborted

let task = Alcotest.testable task_pp task_eq
let opt_task = Alcotest.option task

let test_initial_state () =
  let s = S.create ~block_size:4 () in
  Alcotest.(check int) "execution_idx" 0 (S.execution_idx s);
  Alcotest.(check int) "validation_idx" 0 (S.validation_idx s);
  Alcotest.(check int) "num_active" 0 (S.num_active_tasks s);
  Alcotest.(check bool) "not done" false (S.done_ s);
  Array.iteri
    (fun i () ->
      let inc, kind = S.status s i in
      Alcotest.(check int) "incarnation 0" 0 inc;
      Alcotest.(check bool) "ready" true (kind = S.Ready_to_execute))
    (Array.make 4 ())

let test_initial_tasks_are_executions_in_order () =
  let s = S.create ~block_size:3 () in
  Alcotest.check opt_task "tx0" (Some (S.Execution (ver 0 0))) (S.next_task s);
  Alcotest.check opt_task "tx1" (Some (S.Execution (ver 1 0))) (S.next_task s);
  Alcotest.check opt_task "tx2" (Some (S.Execution (ver 2 0))) (S.next_task s);
  Alcotest.(check int) "three active tasks" 3 (S.num_active_tasks s);
  (* Everything claimed: no more tasks, but not done (tasks ongoing). *)
  Alcotest.check opt_task "exhausted" None (S.next_task s);
  Alcotest.(check bool) "not done while active" false (S.done_ s)

let test_execute_then_validate_then_done () =
  let s = S.create ~block_size:2 () in
  let t0 = S.next_task s and t1 = S.next_task s in
  Alcotest.check opt_task "exec 0" (Some (S.Execution (ver 0 0))) t0;
  Alcotest.check opt_task "exec 1" (Some (S.Execution (ver 1 0))) t1;
  (* Finishing an execution with validation_idx <= txn returns no task (the
     validation sweep will reach it). *)
  Alcotest.check opt_task "no handoff for tx0"
    None
    (S.finish_execution s ~txn_idx:0 ~incarnation:0 ~wrote_new_location:true);
  Alcotest.check opt_task "no handoff for tx1"
    None
    (S.finish_execution s ~txn_idx:1 ~incarnation:0 ~wrote_new_location:true);
  Alcotest.(check int) "no active tasks" 0 (S.num_active_tasks s);
  (* Validations now flow in index order. *)
  Alcotest.check opt_task "val 0" (Some (validation (ver 0 0)))
    (S.next_task s);
  Alcotest.check opt_task "val 1" (Some (validation (ver 1 0)))
    (S.next_task s);
  Alcotest.check opt_task "nothing after" None
    (fin_val s 0 0 ~aborted:false);
  Alcotest.check opt_task "nothing after" None
    (fin_val s 1 0 ~aborted:false);
  (* All indices beyond block, no active tasks: done flips on next poll. *)
  Alcotest.check opt_task "final poll" None (S.next_task s);
  Alcotest.(check bool) "done" true (S.done_ s)

let test_finish_execution_handoff_no_new_location () =
  let s = S.create ~block_size:1 () in
  ignore (S.next_task s);
  ignore (S.finish_execution s ~txn_idx:0 ~incarnation:0
            ~wrote_new_location:false);
  ignore (S.next_task s);
  (* Validation of (0,0) claimed; abort it to force re-execution. *)
  Alcotest.(check bool) "abort wins" true (S.try_validation_abort s (ver 0 0));
  let re = fin_val s 0 0 ~aborted:true in
  Alcotest.check opt_task "re-execution handed back"
    (Some (S.Execution (ver 0 1)))
    re;
  (* Re-executed incarnation writes no new location while validation_idx is
     already past it: the validation task is handed back to the caller. *)
  let v =
    S.finish_execution s ~txn_idx:0 ~incarnation:1 ~wrote_new_location:false
  in
  Alcotest.check opt_task "validation handed back"
    (Some (validation (ver 0 1)))
    v;
  Alcotest.check opt_task "validation done" None
    (fin_val s 0 1 ~aborted:false);
  ignore (S.next_task s);
  Alcotest.(check bool) "done" true (S.done_ s)

let test_abort_lowers_validation_idx () =
  let s = S.create ~block_size:3 () in
  for _ = 1 to 3 do ignore (S.next_task s) done;
  for i = 0 to 2 do
    ignore
      (S.finish_execution s ~txn_idx:i ~incarnation:0 ~wrote_new_location:true)
  done;
  (* Validate all three. *)
  let claimed = List.init 3 (fun _ -> S.next_task s) in
  Alcotest.(check int) "validation idx swept" 3 (S.validation_idx s);
  ignore claimed;
  (* tx1 fails validation. *)
  Alcotest.(check bool) "abort" true (S.try_validation_abort s (ver 1 0));
  let re = fin_val s 1 0 ~aborted:true in
  Alcotest.check opt_task "re-exec handed back" (Some (S.Execution (ver 1 1)))
    re;
  (* Validation index must have been pulled back to txn+1 = 2. *)
  Alcotest.(check int) "validation idx lowered" 2 (S.validation_idx s);
  (* Finish remaining validations and the re-execution. *)
  ignore (fin_val s 0 0 ~aborted:false);
  ignore (fin_val s 2 0 ~aborted:false);
  ignore
    (S.finish_execution s ~txn_idx:1 ~incarnation:1 ~wrote_new_location:true);
  (* tx1's new incarnation and tx2 must be re-validated. *)
  Alcotest.check opt_task "re-validate tx1" (Some (validation (ver 1 1)))
    (S.next_task s);
  Alcotest.check opt_task "re-validate tx2" (Some (validation (ver 2 0)))
    (S.next_task s);
  ignore (fin_val s 1 1 ~aborted:false);
  ignore (fin_val s 2 0 ~aborted:false);
  ignore (S.next_task s);
  Alcotest.(check bool) "done" true (S.done_ s)

let test_validation_abort_only_once () =
  let s = S.create ~block_size:1 () in
  ignore (S.next_task s);
  ignore
    (S.finish_execution s ~txn_idx:0 ~incarnation:0 ~wrote_new_location:true);
  ignore (S.next_task s);
  Alcotest.(check bool) "first abort wins" true
    (S.try_validation_abort s (ver 0 0));
  Alcotest.(check bool) "second abort loses" false
    (S.try_validation_abort s (ver 0 0))

let test_validation_abort_wrong_incarnation () =
  let s = S.create ~block_size:1 () in
  ignore (S.next_task s);
  ignore
    (S.finish_execution s ~txn_idx:0 ~incarnation:0 ~wrote_new_location:true);
  Alcotest.(check bool) "stale incarnation" false
    (S.try_validation_abort s (ver 0 1));
  Alcotest.(check bool) "future incarnation" false
    (S.try_validation_abort s (ver 0 5))

let test_validation_abort_requires_executed () =
  let s = S.create ~block_size:2 () in
  ignore (S.next_task s);
  (* tx0 still EXECUTING. *)
  Alcotest.(check bool) "not executed yet" false
    (S.try_validation_abort s (ver 0 0))

let test_add_dependency_on_executed_returns_false () =
  let s = S.create ~block_size:2 () in
  ignore (S.next_task s);
  ignore (S.next_task s);
  ignore
    (S.finish_execution s ~txn_idx:0 ~incarnation:0 ~wrote_new_location:true);
  (* tx1 observed an estimate of tx0, but tx0 finished in the meantime. *)
  Alcotest.(check bool) "already resolved" false
    (S.add_dependency s ~txn_idx:1 ~blocking_txn_idx:0);
  let _, kind = S.status s 1 in
  Alcotest.(check bool) "tx1 still executing" true (kind = S.Executing)

let test_add_dependency_parks_and_resumes () =
  let s = S.create ~block_size:2 () in
  ignore (S.next_task s);
  (* tx0 executing *)
  ignore (S.next_task s);
  (* tx1 executing *)
  Alcotest.(check bool) "parked" true
    (S.add_dependency s ~txn_idx:1 ~blocking_txn_idx:0);
  let _, kind = S.status s 1 in
  Alcotest.(check bool) "tx1 aborting" true (kind = S.Aborting);
  Alcotest.(check (list int)) "dependency recorded" [ 1 ] (S.dependents s 0);
  Alcotest.(check int) "active tasks drops to 1" 1 (S.num_active_tasks s);
  (* tx0 finishing must resume tx1 with a bumped incarnation. *)
  ignore
    (S.finish_execution s ~txn_idx:0 ~incarnation:0 ~wrote_new_location:true);
  let inc, kind = S.status s 1 in
  Alcotest.(check int) "incarnation bumped" 1 inc;
  Alcotest.(check bool) "ready again" true (kind = S.Ready_to_execute);
  Alcotest.(check (list int)) "dependencies cleared" [] (S.dependents s 0);
  (* Execution index must allow re-claiming tx1. *)
  Alcotest.(check bool) "execution idx lowered" true (S.execution_idx s <= 1)

let test_done_empty_block () =
  let s = S.create ~block_size:0 () in
  Alcotest.check opt_task "no task" None (S.next_task s);
  Alcotest.(check bool) "done immediately" true (S.done_ s)

let test_num_active_never_negative_scripted () =
  let s = S.create ~block_size:2 () in
  let check () =
    Alcotest.(check bool) "non-negative" true (S.num_active_tasks s >= 0)
  in
  ignore (S.next_task s);
  check ();
  ignore (S.next_task s);
  check ();
  ignore
    (S.finish_execution s ~txn_idx:0 ~incarnation:0 ~wrote_new_location:false);
  check ();
  ignore
    (S.finish_execution s ~txn_idx:1 ~incarnation:0 ~wrote_new_location:false);
  check ();
  ignore (S.next_task s);
  check ();
  ignore (fin_val s 0 0 ~aborted:false);
  check ();
  ignore (S.next_task s);
  ignore (fin_val s 1 0 ~aborted:false);
  check ();
  ignore (S.next_task s);
  Alcotest.(check int) "zero at completion" 0 (S.num_active_tasks s)

(* decrease_cnt must tick on every index decrease (the double-collect's
   correctness hinges on it). Note that next_task fetch-and-increments
   validation_idx even while transactions are still EXECUTING (the paper's
   Line 130) — those pre-validations no-op but the index races ahead, so a
   later finish_execution must pull it back and tick the counter. *)
let test_decrease_cnt_ticks () =
  let s = S.create ~block_size:3 () in
  for _ = 1 to 3 do ignore (S.next_task s) done;
  (* The interleaved claims above advanced validation_idx past 0. *)
  Alcotest.(check bool) "validation idx raced ahead" true
    (S.validation_idx s > 0);
  let c0 = S.decrease_cnt s in
  ignore
    (S.finish_execution s ~txn_idx:0 ~incarnation:0 ~wrote_new_location:true);
  Alcotest.(check bool) "tick on validation-idx pullback" true
    (S.decrease_cnt s > c0);
  Alcotest.(check int) "validation idx pulled back to 0" 0
    (S.validation_idx s);
  (* An abort with the validation index ahead must also tick. *)
  ignore
    (S.finish_execution s ~txn_idx:1 ~incarnation:0 ~wrote_new_location:false);
  ignore
    (S.finish_execution s ~txn_idx:2 ~incarnation:0 ~wrote_new_location:false);
  ignore (S.next_task s);
  (* validate tx0 *)
  ignore (S.next_task s);
  (* validate tx1 *)
  let c1 = S.decrease_cnt s in
  Alcotest.(check bool) "abort" true (S.try_validation_abort s (ver 1 0));
  ignore (fin_val s 1 0 ~aborted:true);
  Alcotest.(check bool) "tick on abort" true (S.decrease_cnt s > c1)

(* --- Rolling commit ------------------------------------------------------- *)

(* Claim wave of a validation task handed out by the scheduler. *)
let claim_validation s =
  match S.next_task s with
  | Some (S.Validation (v, w)) -> (v, w)
  | t -> Alcotest.failf "expected a validation, got %a" (Fmt.option task_pp) t

let sweep s commits =
  ignore (S.try_advance_commit s ~on_commit:(fun j -> commits := j :: !commits))

(* Validations completing out of preset order: the sweep must still commit
   0, 1, 2 in order, and only once each transaction's proof is in. *)
let test_rolling_commit_preset_order () =
  let s = S.create ~block_size:3 () in
  for _ = 1 to 3 do ignore (S.next_task s) done;
  for i = 0 to 2 do
    ignore
      (S.finish_execution s ~txn_idx:i ~incarnation:0 ~wrote_new_location:true)
  done;
  Alcotest.(check int) "nothing committed yet" 0 (S.committed_prefix s);
  let waves = Array.make 3 0 in
  for _ = 1 to 3 do
    let v, w = claim_validation s in
    waves.(Blockstm_kernel.Version.txn_idx v) <- w
  done;
  let commits = ref [] in
  (* tx2's proof alone cannot commit anything: tx0 has no proof. *)
  ignore (S.finish_validation s ~version:(ver 2 0) ~wave:waves.(2) ~aborted:false);
  sweep s commits;
  Alcotest.(check int) "tx2 alone commits nothing" 0 (S.committed_prefix s);
  ignore (S.finish_validation s ~version:(ver 0 0) ~wave:waves.(0) ~aborted:false);
  sweep s commits;
  Alcotest.(check int) "tx0 committed" 1 (S.committed_prefix s);
  ignore (S.finish_validation s ~version:(ver 1 0) ~wave:waves.(1) ~aborted:false);
  sweep s commits;
  Alcotest.(check int) "all committed" 3 (S.committed_prefix s);
  Alcotest.(check (list int)) "hooks in preset order" [ 0; 1; 2 ]
    (List.rev !commits);
  for i = 0 to 2 do
    let _, kind = S.status s i in
    Alcotest.(check bool)
      (Printf.sprintf "tx%d COMMITTED" i)
      true (kind = S.Committed)
  done

(* A pullback after a validation was claimed invalidates its proof: the
   commit sweep must refuse the stale wave until a fresh validation lands. *)
let test_rolling_stale_wave_rejected () =
  let s = S.create ~block_size:2 () in
  ignore (S.next_task s);
  ignore (S.next_task s);
  ignore
    (S.finish_execution s ~txn_idx:0 ~incarnation:0 ~wrote_new_location:true);
  ignore
    (S.finish_execution s ~txn_idx:1 ~incarnation:0 ~wrote_new_location:true);
  let v0, w0 = claim_validation s in
  let v1, w1 = claim_validation s in
  (* tx0 fails: the pullback stamps tx1 dirty past w1. *)
  Alcotest.(check bool) "abort tx0" true (S.try_validation_abort s v0);
  let re = S.finish_validation s ~version:v0 ~wave:w0 ~aborted:true in
  Alcotest.check opt_task "re-execution handed back"
    (Some (S.Execution (ver 0 1)))
    re;
  (* tx1's validation completes successfully — but its claim predates the
     pullback, so the proof is stale and must not commit. *)
  ignore (S.finish_validation s ~version:v1 ~wave:w1 ~aborted:false);
  let commits = ref [] in
  sweep s commits;
  Alcotest.(check int) "stale proof refused" 0 (S.committed_prefix s);
  (* tx0's re-execution completes and revalidates: tx0 commits. *)
  let hv =
    S.finish_execution s ~txn_idx:0 ~incarnation:1 ~wrote_new_location:false
  in
  (match hv with
  | Some (S.Validation (v, w)) ->
      ignore (S.finish_validation s ~version:v ~wave:w ~aborted:false)
  | t -> Alcotest.failf "expected validation handoff, got %a"
           (Fmt.option task_pp) t);
  sweep s commits;
  Alcotest.(check int) "tx0 committed" 1 (S.committed_prefix s);
  (* The pullback rescheduled tx1's validation; a fresh claim carries a wave
     past the dirty stamp and finally commits tx1. *)
  let v1', w1' = claim_validation s in
  Alcotest.(check bool) "same version revalidated" true
    (Blockstm_kernel.Version.equal v1' (ver 1 0));
  ignore (S.finish_validation s ~version:v1' ~wave:w1' ~aborted:false);
  sweep s commits;
  Alcotest.(check int) "tx1 committed" 2 (S.committed_prefix s);
  Alcotest.(check (list int)) "hooks in preset order" [ 0; 1 ]
    (List.rev !commits);
  (* Committed is terminal: a late stale validation cannot abort it. *)
  Alcotest.(check bool) "abort refused after commit" false
    (S.try_validation_abort s (ver 1 0))

(* Overlapping validations of one version can complete out of claim order:
   a stale one landing last must not weaken the recorded proof (the commit
   sweep would otherwise stall forever — no further validation is ever
   scheduled for the transaction). *)
let test_rolling_proof_strengthen_only () =
  let s = S.create ~block_size:1 () in
  ignore (S.next_task s);
  ignore
    (S.finish_execution s ~txn_idx:0 ~incarnation:0 ~wrote_new_location:true);
  let v, w = claim_validation s in
  ignore (S.finish_validation s ~version:v ~wave:w ~aborted:false);
  (* A second validation of the same version, claimed one wave earlier,
     completes late. *)
  ignore (S.finish_validation s ~version:v ~wave:(w - 1) ~aborted:false);
  let commits = ref [] in
  sweep s commits;
  Alcotest.(check int) "fresh proof survives" 1 (S.committed_prefix s)

(* The stall-dump accessor reports exactly what the sweep consulted: a
   transaction refused for a stale proof shows a proof wave below the
   required wave, and one refused for its status shows that status. *)
let test_rolling_commit_evidence () =
  let s = S.create ~block_size:2 () in
  let ev0 = S.commit_evidence s 0 in
  Alcotest.(check int) "fresh incarnation" 0 ev0.S.ev_incarnation;
  Alcotest.(check bool) "fresh status" true (ev0.S.ev_kind = S.Ready_to_execute);
  Alcotest.(check (pair int int)) "no proof yet" (-1, -1) ev0.S.ev_proof;
  Alcotest.(check int) "clean" 0 ev0.S.ev_required;
  Alcotest.(check int) "no pullback yet" 0 ev0.S.ev_wave;
  ignore (S.next_task s);
  ignore (S.next_task s);
  ignore
    (S.finish_execution s ~txn_idx:0 ~incarnation:0 ~wrote_new_location:true);
  ignore
    (S.finish_execution s ~txn_idx:1 ~incarnation:0 ~wrote_new_location:true);
  let v0, w0 = claim_validation s in
  let v1, w1 = claim_validation s in
  Alcotest.(check bool) "abort tx0" true (S.try_validation_abort s v0);
  ignore (S.finish_validation s ~version:v0 ~wave:w0 ~aborted:true);
  ignore (S.finish_validation s ~version:v1 ~wave:w1 ~aborted:false);
  let commits = ref [] in
  sweep s commits;
  Alcotest.(check int) "sweep refused" 0 (S.committed_prefix s);
  let ev0 = S.commit_evidence s 0 and ev1 = S.commit_evidence s 1 in
  Alcotest.(check int) "tx0 re-incarnated" 1 ev0.S.ev_incarnation;
  Alcotest.(check bool) "tx0 re-executing" true (ev0.S.ev_kind = S.Executing);
  Alcotest.(check (pair int int)) "tx0 never proved" (-1, -1) ev0.S.ev_proof;
  Alcotest.(check bool) "tx1 executed" true (ev1.S.ev_kind = S.Executed);
  Alcotest.(check (pair int int)) "tx1 proof" (0, w1) ev1.S.ev_proof;
  Alcotest.(check bool) "tx1 proof is stale" true (w1 < ev1.S.ev_required);
  Alcotest.(check bool) "marker covers the stamps" true
    (ev1.S.ev_required <= ev1.S.ev_wave && ev0.S.ev_wave = ev1.S.ev_wave);
  Alcotest.(check string) "dump"
    (Fmt.str "EXECUTED incarnation 0, proof (0, %d), required %d, wave %d" w1
       ev1.S.ev_required ev1.S.ev_wave)
    (Fmt.str "%a" S.pp_commit_evidence ev1)

(* A suffix pullback stamps only its target slot; the sweep must carry that
   stamp past the target as a running wave. tx2's proof predates tx0's
   abort, whose pullback targets tx1: after tx1 commits, tx2's old proof
   is refused, and only a claim made after the pullback commits it. *)
let test_rolling_running_wave () =
  let s = S.create ~block_size:3 () in
  for _ = 1 to 3 do
    ignore (S.next_task s)
  done;
  for i = 0 to 2 do
    ignore
      (S.finish_execution s ~txn_idx:i ~incarnation:0 ~wrote_new_location:true)
  done;
  let v0, w0 = claim_validation s in
  let v1, w1 = claim_validation s in
  let v2, w2 = claim_validation s in
  ignore (S.finish_validation s ~version:v2 ~wave:w2 ~aborted:false);
  Alcotest.(check bool) "abort tx0" true (S.try_validation_abort s v0);
  (match S.finish_validation s ~version:v0 ~wave:w0 ~aborted:true with
  | Some (S.Execution v) -> (
      match
        S.finish_execution s ~txn_idx:0
          ~incarnation:(Blockstm_kernel.Version.incarnation v)
          ~wrote_new_location:false
      with
      | Some (S.Validation (v, w)) ->
          ignore (S.finish_validation s ~version:v ~wave:w ~aborted:false)
      | t ->
          Alcotest.failf "expected validation, got %a" (Fmt.option task_pp) t)
  | t -> Alcotest.failf "expected re-execution, got %a" (Fmt.option task_pp) t);
  ignore (S.finish_validation s ~version:v1 ~wave:w1 ~aborted:false);
  let commits = ref [] in
  sweep s commits;
  Alcotest.(check int) "tx1's pre-pullback proof refused" 1
    (S.committed_prefix s);
  (* tx2's own slots predate its proof: only the pullback to tx1, once the
     sweep passes tx1, can refuse it. *)
  Alcotest.(check bool) "tx2's own stamps are met" true
    ((S.commit_evidence s 2).S.ev_required <= w2);
  let v1', w1' = claim_validation s in
  Alcotest.(check bool) "tx1 re-claimed" true
    (Blockstm_kernel.Version.equal v1' (ver 1 0));
  ignore (S.finish_validation s ~version:v1' ~wave:w1' ~aborted:false);
  sweep s commits;
  Alcotest.(check int) "tx2's old proof refused after tx1 commits" 2
    (S.committed_prefix s);
  Alcotest.(check bool) "running wave demands more" true
    (w2 < (S.commit_evidence s 2).S.ev_required);
  let v2', w2' = claim_validation s in
  Alcotest.(check bool) "tx2 re-claimed" true
    (Blockstm_kernel.Version.equal v2' (ver 2 0));
  ignore (S.finish_validation s ~version:v2' ~wave:w2' ~aborted:false);
  sweep s commits;
  Alcotest.(check int) "fresh claim commits tx2" 3 (S.committed_prefix s);
  Alcotest.(check (list int)) "hooks in preset order" [ 0; 1; 2 ]
    (List.rev !commits)

(* --- Targeted revalidation (DESIGN.md §10) -------------------------------- *)

let test_targeted_mark_claims_exactly_once () =
  let s = S.create ~targeted:true ~block_size:4 () in
  for _ = 1 to 4 do
    ignore (S.next_task s)
  done;
  (* Claims 2-4 each consumed a validation index on a not-yet-executed
     transaction (Algorithm 7), so validation_idx is already 3: the first
     three finishes hand their own validation task back, with no index
     pullback despite wrote_new_location. tx1's validation task stays in
     hand — it will be the one that fails. *)
  for i = 0 to 2 do
    Alcotest.check opt_task "own validation handed back"
      (Some (validation (ver i 0)))
      (S.finish_execution_targeted s ~txn_idx:i ~incarnation:0
         ~wrote_new_location:true ~reval:(S.Reval_readers []));
    if i <> 1 then ignore (fin_val s i 0 ~aborted:false)
  done;
  Alcotest.check opt_task "sweep covers tx3" None
    (S.finish_execution_targeted s ~txn_idx:3 ~incarnation:0
       ~wrote_new_location:true ~reval:(S.Reval_readers []));
  Alcotest.check opt_task "validate tx3"
    (Some (validation (ver 3 0)))
    (S.next_task s);
  ignore (fin_val s 3 0 ~aborted:false);
  Alcotest.(check int) "sweep complete" 4 (S.validation_idx s);
  let avoided0 = S.suffix_avoided s in
  (* tx1's validation fails; the abort invalidates reader tx3 only. *)
  Alcotest.(check bool) "abort wins" true (S.try_validation_abort s (ver 1 0));
  let re =
    S.finish_validation ~invalidated:(S.Reval_readers [ 3 ]) s
      ~version:(ver 1 0) ~wave:0 ~aborted:true
  in
  Alcotest.check opt_task "re-execution handed back"
    (Some (S.Execution (ver 1 1)))
    re;
  Alcotest.(check int) "validation_idx stays put" 4 (S.validation_idx s);
  Alcotest.(check int) "one pending mark" 1 (S.targeted_pending s);
  Alcotest.(check int)
    "paper would have scheduled one more validation (tx2)" (avoided0 + 1)
    (S.suffix_avoided s);
  Alcotest.(check bool) "not done with a pending mark" false (S.done_ s);
  (* The marked transaction is claimed exactly once, from the targeted
     queue. *)
  Alcotest.check opt_task "targeted claim"
    (Some (validation (ver 3 0)))
    (S.next_task s);
  Alcotest.(check int) "queue drained" 0 (S.targeted_pending s);
  Alcotest.(check int) "one claim" 1 (S.targeted_claims s);
  Alcotest.check opt_task "no duplicate claim" None (S.next_task s);
  ignore (fin_val s 3 0 ~aborted:false);
  (* The re-execution reports an empty invalidated set: only its own
     validation is handed back, no index pullback. *)
  let v =
    S.finish_execution_targeted s ~txn_idx:1 ~incarnation:1
      ~wrote_new_location:false ~reval:(S.Reval_readers [])
  in
  Alcotest.check opt_task "own validation handed back"
    (Some (validation (ver 1 1)))
    v;
  Alcotest.(check int) "validation_idx never pulled back" 4
    (S.validation_idx s);
  ignore (fin_val s 1 1 ~aborted:false);
  ignore (S.next_task s);
  Alcotest.(check bool) "done" true (S.done_ s)

let test_targeted_mark_on_executing_dropped () =
  let s = S.create ~targeted:true ~block_size:2 () in
  ignore (S.next_task s);
  ignore (S.next_task s);
  (* tx0 finishes and marks tx1 while tx1 is still EXECUTING; tx0's own
     validation is handed back (the sweep already consumed its index). *)
  Alcotest.check opt_task "own validation handed back"
    (Some (validation (ver 0 0)))
    (S.finish_execution_targeted s ~txn_idx:0 ~incarnation:0
       ~wrote_new_location:true ~reval:(S.Reval_readers [ 1 ]));
  Alcotest.(check int) "mark pending" 1 (S.targeted_pending s);
  (* The next claim consumes the mark but drops it: tx1 is not EXECUTED, and
     its own finish will schedule the fresh incarnation's validation. *)
  Alcotest.check opt_task "mark dropped, nothing else ready" None
    (S.next_task s);
  Alcotest.(check int) "mark consumed" 0 (S.targeted_pending s);
  Alcotest.(check int) "no claim issued" 0 (S.targeted_claims s);
  ignore (fin_val s 0 0 ~aborted:false);
  let v =
    S.finish_execution_targeted s ~txn_idx:1 ~incarnation:0
      ~wrote_new_location:true ~reval:(S.Reval_readers [])
  in
  Alcotest.check opt_task "tx1's own validation handed back"
    (Some (validation (ver 1 0)))
    v;
  ignore (fin_val s 1 0 ~aborted:false);
  ignore (S.next_task s);
  Alcotest.(check bool) "done" true (S.done_ s)

let test_targeted_suffix_fallback_pullback () =
  let s = S.create ~targeted:true ~block_size:3 () in
  for _ = 1 to 3 do
    ignore (S.next_task s)
  done;
  (* tx0's validation task stays in hand — it will be the one that fails. *)
  for i = 0 to 2 do
    match
      S.finish_execution_targeted s ~txn_idx:i ~incarnation:0
        ~wrote_new_location:true ~reval:(S.Reval_readers [])
    with
    | Some (S.Validation (v, w)) ->
        if i <> 0 then
          ignore (S.finish_validation s ~version:v ~wave:w ~aborted:false)
    | Some (S.Execution _) -> Alcotest.fail "unexpected execution task"
    | None -> (
        (* The sweep had not passed this transaction yet: claim it. *)
        match S.next_task s with
        | Some (S.Validation (v, w)) ->
            ignore (S.finish_validation s ~version:v ~wave:w ~aborted:false)
        | _ -> Alcotest.fail "expected a validation task")
  done;
  (* tx0's validation fails, with a registry-overflow answer: the paper
     pullback. *)
  Alcotest.(check bool) "abort wins" true (S.try_validation_abort s (ver 0 0));
  let re =
    S.finish_validation ~invalidated:S.Reval_suffix s ~version:(ver 0 0)
      ~wave:0 ~aborted:true
  in
  Alcotest.check opt_task "re-execution handed back"
    (Some (S.Execution (ver 0 1)))
    re;
  Alcotest.(check int) "validation_idx pulled back to txn+1" 1
    (S.validation_idx s);
  Alcotest.(check int) "fallback counted" 1 (S.targeted_fallbacks s);
  (* The re-execution also reports overflow: pullback to txn_idx itself. *)
  Alcotest.check opt_task "no handoff on suffix" None
    (S.finish_execution_targeted s ~txn_idx:0 ~incarnation:1
       ~wrote_new_location:true ~reval:S.Reval_suffix);
  Alcotest.(check int) "validation_idx pulled back to txn" 0
    (S.validation_idx s);
  Alcotest.(check int) "two fallbacks" 2 (S.targeted_fallbacks s);
  Alcotest.(check int) "no targeted marks along the way" 0
    (S.targeted_marks s);
  (* The ordered sweep revalidates the whole suffix, as in the paper. *)
  for i = 0 to 2 do
    let inc = if i = 0 then 1 else 0 in
    Alcotest.check opt_task
      (Printf.sprintf "revalidate tx%d" i)
      (Some (validation (ver i inc)))
      (S.next_task s);
    ignore (fin_val s i inc ~aborted:false)
  done;
  ignore (S.next_task s);
  Alcotest.(check bool) "done" true (S.done_ s)

let test_targeted_requires_flag () =
  let s = S.create ~block_size:2 () in
  ignore (S.next_task s);
  Alcotest.(check bool) "targeted flag off" false (S.targeted s);
  Alcotest.check_raises "finish_execution_targeted rejected"
    (Invalid_argument
       "Scheduler.finish_execution_targeted: created without ~targeted:true")
    (fun () ->
      ignore
        (S.finish_execution_targeted s ~txn_idx:0 ~incarnation:0
           ~wrote_new_location:true ~reval:(S.Reval_readers [])))

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "initial tasks: executions in order" `Quick
      test_initial_tasks_are_executions_in_order;
    Alcotest.test_case "execute, validate, done" `Quick
      test_execute_then_validate_then_done;
    Alcotest.test_case "handoff: validation task on no-new-location" `Quick
      test_finish_execution_handoff_no_new_location;
    Alcotest.test_case "abort lowers validation index" `Quick
      test_abort_lowers_validation_idx;
    Alcotest.test_case "abort succeeds only once per version" `Quick
      test_validation_abort_only_once;
    Alcotest.test_case "abort needs matching incarnation" `Quick
      test_validation_abort_wrong_incarnation;
    Alcotest.test_case "abort needs EXECUTED status" `Quick
      test_validation_abort_requires_executed;
    Alcotest.test_case "add_dependency: resolved race returns false" `Quick
      test_add_dependency_on_executed_returns_false;
    Alcotest.test_case "add_dependency: parks and resumes" `Quick
      test_add_dependency_parks_and_resumes;
    Alcotest.test_case "empty block is done immediately" `Quick
      test_done_empty_block;
    Alcotest.test_case "num_active_tasks stays consistent" `Quick
      test_num_active_never_negative_scripted;
    Alcotest.test_case "decrease_cnt ticks on index decreases" `Quick
      test_decrease_cnt_ticks;
    Alcotest.test_case "rolling: commits in preset order" `Quick
      test_rolling_commit_preset_order;
    Alcotest.test_case "rolling: stale wave rejected after pullback" `Quick
      test_rolling_stale_wave_rejected;
    Alcotest.test_case "rolling: proofs are strengthen-only" `Quick
      test_rolling_proof_strengthen_only;
    Alcotest.test_case "rolling: commit evidence explains a refused sweep"
      `Quick test_rolling_commit_evidence;
    Alcotest.test_case "rolling: running wave refuses a pre-pullback proof"
      `Quick test_rolling_running_wave;
    Alcotest.test_case "targeted: mark claimed exactly once" `Quick
      test_targeted_mark_claims_exactly_once;
    Alcotest.test_case "targeted: mark on EXECUTING dropped" `Quick
      test_targeted_mark_on_executing_dropped;
    Alcotest.test_case "targeted: overflow reproduces suffix pullback" `Quick
      test_targeted_suffix_fallback_pullback;
    Alcotest.test_case "targeted: requires ~targeted:true" `Quick
      test_targeted_requires_flag;
  ]
