(** The collaborative scheduler (the paper's Scheduler module,
    Algorithms 5–9), extended with a rolling committed-prefix sweep.

    Maintains two logical ordered sets — pending {e execution} tasks and
    pending {e validation} tasks — each implemented as a single atomic counter
    ([execution_idx] / [validation_idx]) combined with the per-transaction
    status array. Threads claim the lowest-indexed ready task by
    fetch-and-incrementing the relevant counter; adding a task back lowers the
    counter with an atomic [fetch_min].

    Completion is detected by [check_done]'s double-collect (the paper's
    Section 3.3.2): both indices at or past the block size, zero active tasks,
    and [decrease_cnt] unchanged across the observation window.

    {b Rolling commit}: a monotone [commit_idx] sweeps forward under a
    dedicated mutex, committing transaction [j] once a completed validation
    of its current incarnation — its {e proof}, (incarnation, wave) — is
    known to have observed the final prefix. The wave is the global
    pullback marker read right {e after} the validation task was claimed.
    Each revalidation demand bumps the marker and stamps one slot — a suffix
    pullback to [k] stamps [suffix.(k)], a targeted mark stamps each
    reader's [dirty] — before re-enabling the mutated transaction. [j]'s
    proof must reach [dirty.(j)] and the maximum of [suffix] over [0..j],
    which the sweep carries as [commit_wave]. At O(1) per pullback every
    scheduler keeps this evidence; only callers that sweep commit a prefix.
    Committed is terminal: [try_validation_abort] refuses it. DESIGN.md §8
    has the safety and liveness argument.

    Deviation from the paper's pseudo-code, documented in DESIGN.md §4:
    [try_incarnate] here is side-effect-free on [num_active_tasks]; each
    caller performs exactly one decrement on its own failure path. Taken
    literally, pseudo-code Lines 116+190 double-decrement when a re-execution
    task is claimed by a racing thread inside [finish_validation]. *)

open Blockstm_kernel

type status_kind =
  | Ready_to_execute
  | Executing
  | Executed
  | Aborting
  | Committed

let pp_status_kind ppf k =
  Fmt.string ppf
    (match k with
    | Ready_to_execute -> "READY_TO_EXECUTE"
    | Executing -> "EXECUTING"
    | Executed -> "EXECUTED"
    | Aborting -> "ABORTING"
    | Committed -> "COMMITTED")

type txn_state = {
  st_mutex : Mutex.t;
  mutable incarnation : int;
  mutable kind : status_kind;
}

type dep_state = { dep_mutex : Mutex.t; mutable dependents : int list }

type task =
  | Execution of Version.t
  | Validation of Version.t * int
      (** The [int] is the claim wave: the pullback counter observed when the
          task was created, recorded into the commit proof on success. *)

let pp_task ppf = function
  | Execution v -> Fmt.pf ppf "execute%a" Version.pp v
  | Validation (v, w) -> Fmt.pf ppf "validate%a@@w%d" Version.pp v w

(* No-proof sentinel: matches no incarnation (incarnations start at 0). *)
let no_proof = (-1, -1)

(** Revalidation demand reported by the engine after a mutation (mirrors
    [Mvmemory.invalidation]): the precise reader set, or the paper's
    whole-suffix pullback when the readers are unknown. *)
type reval = Reval_suffix | Reval_readers of int list

type t = {
  block_size : int;
  targeted : bool;
  execution_idx : int Atomic.t;
  validation_idx : int Atomic.t;
  decrease_cnt : int Atomic.t;
  num_active_tasks : int Atomic.t;
  done_marker : bool Atomic.t;
  status : txn_state array;
  deps : dep_state array;
  (* Rolling-commit state. [pullback_marker] counts revalidation demands;
     [suffix.(k)] is the marker of the last suffix pullback to exactly k;
     [dirty.(j)] is the marker of the last targeted mark listing j;
     [proof.(j)] is the (incarnation, wave) of the last completed successful
     validation of transaction j. [commit_wave], written only under
     [commit_mutex], is the maximum of [suffix] over the committed prefix. *)
  pullback_marker : int Atomic.t;
  suffix : int Atomic.t array;
  dirty : int Atomic.t array;
  proof : (int * int) Atomic.t array;
  commit_mutex : Mutex.t;
  commit_idx : int Atomic.t;
  commit_wave : int Atomic.t;
  (* Targeted-revalidation state (all unused when [targeted] is false).
     [val_flag.(k)] is the needs-revalidation dirty bitmap: set by
     [mark_readers], consumed exactly once per set by the targeted claim in
     [next_task]. [targeted_pending] counts set-but-unclaimed flags and
     participates in [check_done]; [targeted_min] is a monotone-decreasing
     scan hint (min index ever marked). The tail counters are metrics. *)
  val_flag : bool Atomic.t array;
  targeted_pending : int Atomic.t;
  targeted_min : int Atomic.t;
  targeted_marks : int Atomic.t;
  targeted_claims : int Atomic.t;
  targeted_fallbacks : int Atomic.t;
  suffix_avoided : int Atomic.t;
}

(* The global counters are the most contended words in the system — every
   task claim CASes one of them — and the per-txn stamp/proof/status slots
   are hammered by neighbouring indices, so all of them are padded onto
   their own cache lines (DESIGN.md §9). *)
let create ?(targeted = false) ~block_size () =
  if block_size < 0 then invalid_arg "Scheduler.create: negative block_size";
  let padded_atomic = Atomic_util.padded_atomic in
  {
    block_size;
    targeted;
    execution_idx = padded_atomic 0;
    validation_idx = padded_atomic 0;
    decrease_cnt = padded_atomic 0;
    num_active_tasks = padded_atomic 0;
    done_marker = padded_atomic false;
    status =
      Array.init block_size (fun _ ->
          Atomic_util.pad
            {
              st_mutex = Mutex.create ();
              incarnation = 0;
              kind = Ready_to_execute;
            });
    deps =
      Array.init block_size (fun _ ->
          Atomic_util.pad { dep_mutex = Mutex.create (); dependents = [] });
    pullback_marker = padded_atomic 0;
    suffix = Array.init block_size (fun _ -> padded_atomic 0);
    dirty = Array.init block_size (fun _ -> padded_atomic 0);
    proof = Array.init block_size (fun _ -> padded_atomic no_proof);
    commit_mutex = Mutex.create ();
    commit_idx = padded_atomic 0;
    commit_wave = Atomic.make 0;
    val_flag =
      (if targeted then Array.init block_size (fun _ -> padded_atomic false)
       else [||]);
    targeted_pending = padded_atomic 0;
    targeted_min = padded_atomic block_size;
    targeted_marks = padded_atomic 0;
    targeted_claims = padded_atomic 0;
    targeted_fallbacks = padded_atomic 0;
    suffix_avoided = padded_atomic 0;
  }

let block_size t = t.block_size
let targeted t = t.targeted

let require_targeted t fn =
  if not t.targeted then
    invalid_arg
      (Printf.sprintf "Scheduler.%s: created without ~targeted:true" fn)

(* --- Algorithm 5: utility procedures ------------------------------------ *)

let decrease_execution_idx t ~target_idx =
  ignore (Atomic_util.fetch_min t.execution_idx target_idx);
  Atomic_util.incr t.decrease_cnt

(* Stamp a suffix pullback to [target_idx]: every proof at or above it may
   predate this pullback's mutation. One slot; the commit sweep folds it
   into [commit_wave] once it passes [target_idx]. Must run after the
   MVMemory mutation it reports, before the status change that re-enables
   the mutated transaction, and before the [fetch_min] that re-opens the
   validation index (so a claim receiving a re-opened index reads a wave
   covering this stamp). *)
let mark_dirty t ~target_idx : unit =
  if target_idx < t.block_size then begin
    let marker = 1 + Atomic_util.get_and_incr t.pullback_marker in
    ignore (Atomic_util.fetch_max t.suffix.(target_idx) marker)
  end

let decrease_validation_idx t ~target_idx =
  mark_dirty t ~target_idx;
  ignore (Atomic_util.fetch_min t.validation_idx target_idx);
  Atomic_util.incr t.decrease_cnt

(* The wave a validation claimed now would carry. *)
let current_wave t = Atomic.get t.pullback_marker

(* Targeted counterpart of a validation pullback: stamp exactly the
   transactions whose recorded reads the mutation invalidated, instead of
   pulling [validation_idx] back over the whole suffix. Same ordering
   contract as [mark_dirty]: must run after the MVMemory mutation it reports
   and before the status change that re-enables the mutated transaction.
   Every caller holds an active-task count across this call, and the final
   [decrease_cnt] bump lands after the pending increments and before the
   caller's active-task decrement — so [check_done]'s double-collect can
   never certify completion across an in-flight mark (it reads
   [targeted_pending] before [num_active_tasks]). *)
let mark_readers t ~(readers : int list) : unit =
  (match readers with
  | [] -> ()
  | _ ->
      (* One pullback wave per mark; per-index stamps only — readers not in
         the set keep their (still valid) commit proofs. *)
      let marker = 1 + Atomic_util.get_and_incr t.pullback_marker in
      List.iter
        (fun k ->
          if k >= 0 && k < t.block_size then
            ignore (Atomic_util.fetch_max t.dirty.(k) marker))
        readers);
  let marked = ref 0 in
  List.iter
    (fun k ->
      if
        k >= 0 && k < t.block_size
        && Atomic.compare_and_set t.val_flag.(k) false true
      then begin
        incr marked;
        Atomic_util.incr t.targeted_pending;
        ignore (Atomic_util.fetch_min t.targeted_min k)
      end)
    readers;
  if !marked > 0 then begin
    ignore (Atomic.fetch_and_add t.targeted_marks !marked);
    Atomic_util.incr t.decrease_cnt
  end

(* Double-collect on [decrease_cnt]: reads are sequenced explicitly (OCaml
   application evaluates arguments right-to-left, so we avoid inline reads).
   [targeted_pending] is read before [num_active_tasks]: a targeted claim
   increments the active count before consuming its flag, so a claim
   in-flight between the two reads is visible in one of them (the same
   publish-intent-before-consuming-the-token discipline as the index
   counters). *)
let check_done t =
  let observed_cnt = Atomic.get t.decrease_cnt in
  let e = Atomic.get t.execution_idx in
  let v = Atomic.get t.validation_idx in
  let pending = if t.targeted then Atomic.get t.targeted_pending else 0 in
  let active = Atomic.get t.num_active_tasks in
  let cnt_now = Atomic.get t.decrease_cnt in
  if
    min e v >= t.block_size && pending = 0 && active = 0
    && observed_cnt = cnt_now
  then Atomic.set t.done_marker true

let done_ t = Atomic.get t.done_marker

(* --- Status helpers ------------------------------------------------------ *)

let with_status t idx f =
  let s = t.status.(idx) in
  Mutex.lock s.st_mutex;
  let r = f s in
  Mutex.unlock s.st_mutex;
  r

(** Observe a transaction's current (incarnation, status) — test/debug aid. *)
let status t idx = with_status t idx (fun s -> (s.incarnation, s.kind))

(* --- Algorithm 6: index / status interplay ------------------------------- *)

(* Try to claim transaction [txn_idx] for execution: READY_TO_EXECUTE ->
   EXECUTING. Returns the version to execute. No counter side effects (see
   module comment). *)
let try_incarnate t txn_idx : Version.t option =
  if txn_idx < t.block_size then
    with_status t txn_idx (fun s ->
        if s.kind = Ready_to_execute then (
          s.kind <- Executing;
          Some (Version.make ~txn_idx ~incarnation:s.incarnation))
        else None)
  else None

let next_version_to_execute t : Version.t option =
  if Atomic.get t.execution_idx >= t.block_size then (
    check_done t;
    None)
  else (
    Atomic_util.incr t.num_active_tasks;
    let idx_to_execute = Atomic_util.get_and_incr t.execution_idx in
    match try_incarnate t idx_to_execute with
    | Some v -> Some v
    | None ->
        (* No task created: revert the increment above. *)
        Atomic_util.decr t.num_active_tasks;
        None)

(* The wave is read after the index claim. A pullback bumps the marker
   before its [fetch_min], so a claim that receives a re-opened index reads
   a wave covering that pullback; a claim made before the pullback has its
   index claimed again after it. The validation's reads happen later still,
   so a pullback after this read only makes the proof conservative. *)
let next_version_to_validate t : (Version.t * int) option =
  if Atomic.get t.validation_idx >= t.block_size then (
    check_done t;
    None)
  else (
    Atomic_util.incr t.num_active_tasks;
    let idx_to_validate = Atomic_util.get_and_incr t.validation_idx in
    let wave = current_wave t in
    let version =
      if idx_to_validate < t.block_size then
        with_status t idx_to_validate (fun s ->
            if s.kind = Executed then
              Some
                (Version.make ~txn_idx:idx_to_validate
                   ~incarnation:s.incarnation)
            else None)
      else None
    in
    match version with
    | Some v -> Some (v, wave)
    | None ->
        Atomic_util.decr t.num_active_tasks;
        None)

(* --- Algorithm 7: next task ---------------------------------------------- *)

(* Claim the lowest marked transaction from the targeted queue. O(1) when
   the queue is empty (the common case); otherwise a linear scan of atomic
   flags from the monotone scan hint. Each set flag is consumed exactly once
   (CAS true -> false) — the active-task count is incremented BEFORE the
   consuming CAS so [check_done] cannot miss an in-flight claim. A consumed
   mark on a transaction that is not EXECUTED is dropped: its current
   incarnation has not finished, and in targeted mode every
   [finish_execution_targeted] schedules a validation of the fresh
   incarnation whose re-reads postdate the mutation this mark reported. *)
let next_targeted_validation t : (Version.t * int) option =
  if (not t.targeted) || Atomic.get t.targeted_pending <= 0 then None
  else begin
    let n = t.block_size in
    let rec scan k =
      if k >= n then None
      else if Atomic.get t.val_flag.(k) then begin
        Atomic_util.incr t.num_active_tasks;
        if Atomic.compare_and_set t.val_flag.(k) true false then begin
          Atomic_util.decr t.targeted_pending;
          (* Wave read after the mark that set this flag (and its dirty
             stamp): the recorded proof covers that mutation. *)
          let wave = current_wave t in
          match
            with_status t k (fun s ->
                if s.kind = Executed then
                  Some (Version.make ~txn_idx:k ~incarnation:s.incarnation)
                else None)
          with
          | Some v ->
              Atomic_util.incr t.targeted_claims;
              Some (v, wave)
          | None ->
              Atomic_util.decr t.num_active_tasks;
              scan (k + 1)
        end
        else begin
          (* Lost the flag to a racing claimer. *)
          Atomic_util.decr t.num_active_tasks;
          scan (k + 1)
        end
      end
      else scan (k + 1)
    in
    scan (max 0 (Atomic.get t.targeted_min))
  end

let next_task t : task option =
  match next_targeted_validation t with
  | Some (v, wave) -> Some (Validation (v, wave))
  | None -> (
      if Atomic.get t.validation_idx < Atomic.get t.execution_idx then
        match next_version_to_validate t with
        | Some (v, wave) -> Some (Validation (v, wave))
        | None -> (
            match next_version_to_execute t with
            | Some v -> Some (Execution v)
            | None -> None)
      else
        match next_version_to_execute t with
        | Some v -> Some (Execution v)
        | None -> None)

(* --- Algorithm 8: dependencies ------------------------------------------- *)

(* Called when executing [txn_idx] read an ESTIMATE left by
   [blocking_txn_idx]. Returns [false] if the dependency got resolved in the
   meantime (caller must immediately retry execution); [true] if [txn_idx] is
   now parked until [blocking_txn_idx]'s next incarnation finishes. Lock
   order: dependency lock of the blocking txn, then status locks — the unique
   global order (Claim 5) that makes deadlock impossible. *)
let add_dependency t ~txn_idx ~blocking_txn_idx : bool =
  let d = t.deps.(blocking_txn_idx) in
  Mutex.lock d.dep_mutex;
  let resolved =
    with_status t blocking_txn_idx (fun s ->
        s.kind = Executed || s.kind = Committed)
  in
  if resolved then (
    Mutex.unlock d.dep_mutex;
    false)
  else (
    with_status t txn_idx (fun s ->
        (* Previous status must be EXECUTING: this thread is the executor. *)
        assert (s.kind = Executing);
        s.kind <- Aborting);
    d.dependents <- txn_idx :: d.dependents;
    Mutex.unlock d.dep_mutex;
    (* Execution task aborted due to a dependency. *)
    Atomic_util.decr t.num_active_tasks;
    true)

(* ABORTING(i) -> READY_TO_EXECUTE(i+1). *)
let set_ready_status t txn_idx : unit =
  with_status t txn_idx (fun s ->
      assert (s.kind = Aborting);
      s.incarnation <- s.incarnation + 1;
      s.kind <- Ready_to_execute)

let resume_dependencies t (dependent_txn_indices : int list) : unit =
  List.iter (fun dep -> set_ready_status t dep) dependent_txn_indices;
  match dependent_txn_indices with
  | [] -> ()
  | l ->
      let min_dep = List.fold_left min max_int l in
      decrease_execution_idx t ~target_idx:min_dep

(* Called after an incarnation's writes were recorded in MVMemory. May hand a
   validation task for the same version back to the caller (optimization:
   when no new location was written, only this transaction needs
   revalidation). *)
let finish_execution t ~txn_idx ~incarnation ~wrote_new_location : task option
    =
  (* Suffix-stamp before publishing EXECUTED: a new write location may
     invalidate any higher transaction's proof, and unlike the paper's lazy
     commit this must be recorded even when the validation sweep has not yet
     passed this transaction (a stale proof could otherwise be accepted by
     the commit sweep). The validation_idx pullback itself stays conditional
     below, exactly as in the paper. *)
  if wrote_new_location then mark_dirty t ~target_idx:txn_idx;
  with_status t txn_idx (fun s ->
      assert (s.kind = Executing && s.incarnation = incarnation);
      s.kind <- Executed);
  let d = t.deps.(txn_idx) in
  Mutex.lock d.dep_mutex;
  let deps = d.dependents in
  d.dependents <- [];
  Mutex.unlock d.dep_mutex;
  resume_dependencies t deps;
  if Atomic.get t.validation_idx > txn_idx then
    if wrote_new_location then (
      (* Schedule validation for txn_idx and everything above it. The suffix
         stamp already happened above, pre-EXECUTED. *)
      ignore (Atomic_util.fetch_min t.validation_idx txn_idx);
      Atomic_util.incr t.decrease_cnt;
      Atomic_util.decr t.num_active_tasks;
      None)
    else
      (* Hand the single validation task to the caller; the active-task count
         transfers to it. The wave is read now, after the record: the
         validation's re-reads observe at least the state this wave vouches
         for. *)
      Some (Validation (Version.make ~txn_idx ~incarnation, current_wave t))
  else (
    (* validation_idx <= txn_idx: revalidation is already on its way. *)
    Atomic_util.decr t.num_active_tasks;
    None)

(* Targeted-mode [finish_execution]: instead of keying the whole-suffix
   pullback off [wrote_new_location], the caller reports the precise
   revalidation demand computed by MVMemory. [Reval_readers] marks exactly
   those transactions in the dirty bitmap (plus their dirty stamps) and hands
   the transaction's own validation back to the caller; [Reval_suffix]
   (registry overflow) reproduces the paper's pullback to [txn_idx] — the
   degradation path, never unsound. [wrote_new_location] is only used for
   the suffix-validations-avoided metric (what the paper would have pulled
   back). *)
let finish_execution_targeted t ~txn_idx ~incarnation ~wrote_new_location
    ~(reval : reval) : task option =
  require_targeted t "finish_execution_targeted";
  (match reval with
  | Reval_suffix ->
      Atomic_util.incr t.targeted_fallbacks;
      mark_dirty t ~target_idx:txn_idx
  | Reval_readers rs ->
      (if wrote_new_location then begin
         (* The paper would revalidate [txn_idx, validation_idx); we schedule
            |rs| marks plus this transaction's own handoff. *)
         let v = min (Atomic.get t.validation_idx) t.block_size in
         let avoided = v - txn_idx - (List.length rs + 1) in
         if avoided > 0 then
           ignore (Atomic.fetch_and_add t.suffix_avoided avoided)
       end);
      mark_readers t ~readers:rs);
  with_status t txn_idx (fun s ->
      assert (s.kind = Executing && s.incarnation = incarnation);
      s.kind <- Executed);
  let d = t.deps.(txn_idx) in
  Mutex.lock d.dep_mutex;
  let deps = d.dependents in
  d.dependents <- [];
  Mutex.unlock d.dep_mutex;
  resume_dependencies t deps;
  match reval with
  | Reval_suffix ->
      if Atomic.get t.validation_idx > txn_idx then begin
        ignore (Atomic_util.fetch_min t.validation_idx txn_idx);
        Atomic_util.incr t.decrease_cnt
      end;
      Atomic_util.decr t.num_active_tasks;
      None
  | Reval_readers _ ->
      if Atomic.get t.validation_idx > txn_idx then
        (* Hand this transaction's validation to the caller (the active-task
           count transfers); the invalidated readers are revalidated through
           their marks, so no index pullback is needed. *)
        Some (Validation (Version.make ~txn_idx ~incarnation, current_wave t))
      else begin
        (* validation_idx <= txn_idx: the ordered sweep revalidates it. *)
        Atomic_util.decr t.num_active_tasks;
        None
      end

(* --- Algorithm 9: validation aborts -------------------------------------- *)

(* Only the first failing validation of a given version wins the abort:
   EXECUTED(i) -> ABORTING(i). A COMMITTED transaction is final — a stale
   in-flight validation that fails afterwards loses here, deterministically. *)
let try_validation_abort t (version : Version.t) : bool =
  let txn_idx = Version.txn_idx version in
  let incarnation = Version.incarnation version in
  with_status t txn_idx (fun s ->
      if s.incarnation = incarnation && s.kind = Executed then (
        s.kind <- Aborting;
        true)
      else false)

let finish_validation ?invalidated t ~version ~wave ~aborted : task option =
  let txn_idx = Version.txn_idx version in
  if aborted then (
    (* All higher transactions may have read the aborted writes. The
       pullback (and its suffix stamp) must land before the transaction is
       re-enabled: once READY, the re-execution can be claimed, finished,
       re-validated and committed — and the commit sweep may then read
       [suffix.(txn_idx + 1)], which must already reflect this abort. In
       targeted mode with a precise invalidated-reader set (collected by the
       engine BEFORE the writes became ESTIMATEs), only those readers are
       marked and the validation index stays put; a [Reval_suffix] answer
       (registry overflow) or no answer falls back to the paper's
       pullback. *)
    (match invalidated with
    | Some (Reval_readers rs) when t.targeted ->
        let v = min (Atomic.get t.validation_idx) t.block_size in
        let avoided = v - (txn_idx + 1) - List.length rs in
        if avoided > 0 then
          ignore (Atomic.fetch_and_add t.suffix_avoided avoided);
        mark_readers t ~readers:rs
    | Some Reval_suffix when t.targeted ->
        Atomic_util.incr t.targeted_fallbacks;
        decrease_validation_idx t ~target_idx:(txn_idx + 1)
    | _ -> decrease_validation_idx t ~target_idx:(txn_idx + 1));
    set_ready_status t txn_idx;
    if Atomic.get t.execution_idx > txn_idx then (
      match try_incarnate t txn_idx with
      | Some v ->
          (* Hand the re-execution task to the caller (count transfers). *)
          Some (Execution v)
      | None ->
          (* Another thread already claimed the re-execution. *)
          Atomic_util.decr t.num_active_tasks;
          None)
    else (
      (* execution_idx <= txn_idx: the sweep will pick it up. *)
      Atomic_util.decr t.num_active_tasks;
      None))
  else (
    (* Successful validation: record the commit proof. Proofs only ever
       strengthen — higher incarnation, or same incarnation with a later
       wave. A plain store would let a slow validation claimed before a
       pullback complete late and clobber a fresh proof with a stale one;
       with no further validation of this transaction scheduled, the commit
       sweep would then stall forever. *)
    let incarnation = Version.incarnation version in
    let cell = t.proof.(txn_idx) in
    let rec strengthen () =
      let (pi, pw) as old = Atomic.get cell in
      if
        (incarnation > pi || (incarnation = pi && wave > pw))
        && not (Atomic.compare_and_set cell old (incarnation, wave))
      then strengthen ()
    in
    strengthen ();
    Atomic_util.decr t.num_active_tasks;
    None)

(* --- Rolling commit sweep ------------------------------------------------- *)

let committed_prefix t = Atomic.get t.commit_idx

(* The wave j's proof must reach once every i < j is committed: the latest
   suffix pullback to any index <= j, or targeted mark listing j. *)
let required_wave t j =
  max (Atomic.get t.commit_wave)
    (max (Atomic.get t.suffix.(j)) (Atomic.get t.dirty.(j)))

(* Commit rule for transaction j (under both commit_mutex and j's status
   lock): EXECUTED, with a completed successful validation of the current
   incarnation whose claim wave reaches [required_wave t j]. All i < j are
   already COMMITTED (the sweep is in order), so the state j reads from is
   frozen, and no stamp on [suffix.(i)] for i <= j can still land: only an
   execution of i or an abort of i - 1 stamps it. The proof then certifies
   j's read-set against that frozen state. Setting COMMITTED under the
   status lock excludes any racing validation abort. *)
let sweep_commits t ~on_commit : int =
  let committed = ref 0 in
  let continue = ref true in
  while !continue do
    let j = Atomic.get t.commit_idx in
    if j >= t.block_size then continue := false
    else begin
      let ok =
        with_status t j (fun s ->
            let pi, pw = Atomic.get t.proof.(j) in
            if
              s.kind = Executed && pi = s.incarnation
              && pw >= required_wave t j
            then begin
              s.kind <- Committed;
              true
            end
            else false)
      in
      if ok then begin
        Atomic.set t.commit_wave
          (max (Atomic.get t.commit_wave) (Atomic.get t.suffix.(j)));
        on_commit j;
        Atomic.set t.commit_idx (j + 1);
        incr committed
      end
      else continue := false
    end
  done;
  !committed

(** Opportunistic commit sweep: advances [commit_idx] as far as the commit
    rule allows, calling [on_commit j] for each newly committed transaction
    in preset order (while holding the commit mutex, so hooks are totally
    ordered). Non-blocking: returns 0 immediately when another thread holds
    the commit mutex. Returns the number of transactions committed. *)
let try_advance_commit t ~on_commit : int =
  if Mutex.try_lock t.commit_mutex then begin
    let n = sweep_commits t ~on_commit in
    Mutex.unlock t.commit_mutex;
    n
  end
  else 0

(** Blocking variant of {!try_advance_commit}, for finalization. *)
let advance_commit t ~on_commit : int =
  Mutex.lock t.commit_mutex;
  let n = sweep_commits t ~on_commit in
  Mutex.unlock t.commit_mutex;
  n

(* --- Introspection (tests, simulator, metrics) --------------------------- *)

let execution_idx t = Atomic.get t.execution_idx
let validation_idx t = Atomic.get t.validation_idx
let num_active_tasks t = Atomic.get t.num_active_tasks
let decrease_cnt t = Atomic.get t.decrease_cnt
let targeted_pending t = Atomic.get t.targeted_pending
let targeted_marks t = Atomic.get t.targeted_marks
let targeted_claims t = Atomic.get t.targeted_claims
let targeted_fallbacks t = Atomic.get t.targeted_fallbacks
let suffix_avoided t = Atomic.get t.suffix_avoided

type commit_evidence = {
  ev_incarnation : int;
  ev_kind : status_kind;
  ev_proof : int * int;
  ev_required : int;
  ev_wave : int;
}

(* Everything [sweep_commits] consults for transaction [idx], read without
   the commit mutex: each field is read on its own, so a racing worker can
   make the record inconsistent — it is a diagnostic, not a commit test. *)
let commit_evidence t idx =
  let ev_incarnation, ev_kind = status t idx in
  {
    ev_incarnation;
    ev_kind;
    ev_proof = Atomic.get t.proof.(idx);
    ev_required = required_wave t idx;
    ev_wave = current_wave t;
  }

let pp_commit_evidence ppf e =
  Fmt.pf ppf "%a incarnation %d, proof (%d, %d), required %d, wave %d"
    pp_status_kind e.ev_kind e.ev_incarnation (fst e.ev_proof)
    (snd e.ev_proof) e.ev_required e.ev_wave

let dependents t idx =
  let d = t.deps.(idx) in
  Mutex.lock d.dep_mutex;
  let l = d.dependents in
  Mutex.unlock d.dep_mutex;
  l
