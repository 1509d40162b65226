(** Block-STM: the parallel execution engine (Algorithms 1 and 4 of the
    paper, on top of {!Blockstm_mvmemory.Mvmemory} and
    {!Blockstm_scheduler.Scheduler}).

    Given a block of transactions [tx_0 < tx_1 < ... < tx_{n-1}] and a
    read-only storage snapshot, [run] executes the block on [num_domains]
    domains and returns the final write snapshot plus per-transaction outputs
    — guaranteed identical to executing the block sequentially in the preset
    order.

    Transactions are closures over an {!type:effects} handle; the VM wrapper
    intercepts every read and write, accumulating the incarnation's read- and
    write-sets exactly as Algorithm 4 prescribes. *)

open Blockstm_kernel
module Scheduler = Blockstm_scheduler.Scheduler
module Spec_dag = Blockstm_scheduler.Spec_dag
module Metrics = Blockstm_obs.Metrics
module Trace = Blockstm_obs.Trace

module Make (L : Intf.LOCATION) (V : Intf.VALUE) = struct
  module Mv = Blockstm_mvmemory.Mvmemory.Make (L) (V)
  module Store = Blockstm_storage.Memstore.Make (L) (V)
  module LTbl = Hashtbl.Make (L)

  (** Raised internally when a speculative read hits an [ESTIMATE] marker:
      the executing transaction depends on [blocking_txn_idx]. *)
  exception Dependency of int

  (** The handle a transaction uses to access state (see {!Txn.effects}). *)
  type effects = (L.t, V.t) Txn.effects

  (** A transaction: deterministic code over an effects handle, producing an
      output of type ['o] (events, return value, gas used, ...). *)
  type 'o txn = (L.t, V.t, 'o) Txn.t

  (** Outcome of the final incarnation of a transaction. *)
  type 'o txn_output = 'o Txn.output = Success of 'o | Failed of string

  let pp_txn_output = Txn.pp_output

  (** Execution statistics, aggregated across all domains. *)
  type metrics = {
    incarnations : int;  (** VM executions that ran to completion. *)
    dependency_aborts : int;  (** Executions stopped by an ESTIMATE read. *)
    validations : int;  (** Validation tasks performed. *)
    validation_aborts : int;  (** Validations that failed and won the abort. *)
    prevalidation_skips : int;
        (** Re-executions short-circuited by the read-set pre-check (§4). *)
    resumptions : int;
        (** Incarnations that resumed a suspended predecessor mid-transaction
            (suspend_resume mode). *)
    discarded_suspensions : int;
        (** Suspensions whose read prefix no longer validated and were
            discarded (suspend_resume mode). *)
    commits : int;
        (** Transactions committed by the rolling sweep (0 when
            [rolling_commit] is off: the block commits lazily as a whole). *)
    targeted_validations : int;
        (** Validation tasks drained from the targeted needs-revalidation
            queue (0 unless [targeted_validation]). *)
    suffix_validations_avoided : int;
        (** Validation tasks the paper's suffix pullbacks would have
            scheduled beyond what targeted marking did (0 unless
            [targeted_validation]). *)
    value_prune_hits : int;
        (** Writes pruned as value-equal republications (0 unless
            [targeted_validation]). *)
    delta_applies : int;
        (** Commutative delta entries recorded by committed-to-MVMemory
            incarnations (0 unless [delta_ops]). *)
    cold_reads : int;
        (** Executions suspended on a cold storage probe (0 unless
            [cold_read_suspend] with a cold-capable probe). *)
    spec_skips : int;
        (** Validation tasks short-circuited because the transaction's
            static access spec is disjoint from every other transaction's
            (0 unless [specs] were given; DESIGN.md §15). Not counted in
            [validations]. *)
  }

  let pp_metrics ppf m =
    Fmt.pf ppf
      "{ incarnations=%d; dep_aborts=%d; validations=%d; val_aborts=%d; \
       preval_skips=%d; resumed=%d; discarded=%d; commits=%d; targeted=%d; \
       suffix_avoided=%d; prunes=%d; deltas=%d; cold=%d; spec_skips=%d }"
      m.incarnations m.dependency_aborts m.validations m.validation_aborts
      m.prevalidation_skips m.resumptions m.discarded_suspensions m.commits
      m.targeted_validations m.suffix_validations_avoided m.value_prune_hits
      m.delta_applies m.cold_reads m.spec_skips

  type config = {
    num_domains : int;  (** Worker domains (>= 1). *)
    use_estimates : bool;
        (** Paper default [true]: aborted writes become ESTIMATE markers and
            readers wait for the dependency. [false] is the ablation the
            paper mentions in §3.2.1 — aborted entries are simply removed, so
            conflicts surface only at validation time. *)
    prevalidate_reads : bool;
        (** §4 optimization: before re-executing an incarnation, re-read the
            previous read-set and park on any ESTIMATE found. *)
    prefill_estimates : bool;
        (** §7 future-work feature: seed MVMemory with ESTIMATE markers from
            declared write-sets so even first incarnations wait on likely
            conflicts. Requires [declared_writes]. *)
    suspend_resume : bool;
        (** §7 future-work feature (the Diem VM lacked it, see §4): when a
            read hits an ESTIMATE, capture the transaction's continuation
            with an OCaml effect handler instead of discarding the work.
            The scheduler protocol is unchanged (the incarnation still
            aborts and a new one is created); when the next incarnation
            starts, the prefix of reads performed before the suspension is
            re-validated — exactly the optimization §7 suggests — and on
            success execution resumes mid-transaction. *)
    rolling_commit : bool;
        (** Stream a committed prefix instead of the paper's lazy
            block-at-once commit (Lemma 2): workers opportunistically
            advance the scheduler's commit sweep, committed entries are
            flushed out of MVMemory into a committed-base table, and
            [on_commit] hooks fire per transaction in preset order. Default
            [false]: paper-faithful behavior, byte-identical results. *)
    mv_nshards : int;
        (** Hash shards in the MVMemory location index (default 64). Exposed
            so bench can sweep the sharding factor. *)
    targeted_validation : bool;
        (** §7 future-work optimization (DESIGN.md §10): replace the paper's
            whole-suffix revalidation with targeted revalidation — MVMemory
            tracks per-location reader registries and prunes value-equal
            republications, and the scheduler revalidates exactly the
            invalidated readers through a needs-revalidation queue, keeping
            the suffix pullback as the registry-overflow backstop. Default
            [false]: paper-faithful behavior, byte-identical results.
            Requires [use_estimates]. *)
    delta_ops : bool;
        (** Commutative delta entries for hotspot state (DESIGN.md §12):
            [Txn.effects.delta] publishes bounded add/sub operations as
            MVMemory delta entries validated by {e range} instead of value
            equality, so concurrent increments to one location no longer
            abort each other. [false] (the default) routes
            [Txn.effects.delta] through the instrumented read/write pair
            ({!Txn.rmw_delta}), reproducing the paper's behavior
            byte-identically. *)
    record_exec_ns : bool;
        (** Record the wall-clock VM execution time of each transaction's
            final incarnation in [result.exec_ns] (the vm-cost experiment's
            per-txn histogram). Default [false]: the hot path takes no
            timestamps. *)
    cold_read_suspend : bool;
        (** Storage-layer use of the suspend/resume machinery (DESIGN.md
            §13): when the non-blocking storage [probe] reports a miss, the
            transaction suspends through an effect handler (like an ESTIMATE
            read in suspend_resume mode), the worker runs the fetch, and the
            execution task is retried immediately — resuming the continuation
            after re-validating the read prefix, with the retried probe now
            hitting the warmed cache. [false] (the default) pays the fetch
            latency inline inside the VM read. No effect unless [probe] is
            given. *)
    static_specs : bool;
        (** Seed MVMemory ESTIMATE markers from the exact write entries of
            the static access specs (DESIGN.md §15) before the first
            execution, so first incarnations park on predicted conflicts
            instead of discovering them by aborting — the spec-driven
            sibling of [prefill_estimates]. Requires [specs] at
            {!create_instance} and [use_estimates]; transactions whose
            write spec contains a wildcard or unknown entry are simply not
            seeded. Default [false]: no behavior change. *)
    spec_dag : bool;
        (** Schedule from the static-spec dependency DAG instead of
            optimistically (DESIGN.md §15): each transaction executes
            exactly once, after every lower transaction whose declared
            writes may feed its declared reads — no validation, no
            re-execution, BOHM-style. Transactions with non-exact specs
            degrade to order barriers (they wait for everything before
            them, and everything after waits for them). Requires [specs];
            incompatible with the optimistic-machinery options
            ([static_specs], [rolling_commit], [targeted_validation],
            [suspend_resume], [cold_read_suspend], [delta_ops],
            [prefill_estimates]). Commits bit-identical state
            to the optimistic engine. Default [false]. *)
  }

  let default_config =
    {
      num_domains = 1;
      use_estimates = true;
      prevalidate_reads = true;
      prefill_estimates = false;
      suspend_resume = false;
      rolling_commit = false;
      mv_nshards = 64;
      targeted_validation = false;
      delta_ops = false;
      record_exec_ns = false;
      cold_read_suspend = false;
      static_specs = false;
      spec_dag = false;
    }

  type 'o result = {
    snapshot : (L.t * V.t) list;  (** Final value per affected location. *)
    outputs : 'o txn_output array;  (** Per-transaction outputs, in order. *)
    metrics : metrics;
    commit_ns : int array;
        (** Per-transaction time-to-commit (ns since the instance was
            created), in preset order. Empty unless [rolling_commit]. *)
    exec_ns : int array;
        (** Per-transaction VM execution time (ns) of the final — i.e.
            committed — incarnation, in preset order. Empty unless
            [record_exec_ns]. *)
  }

  (* ---------------------------------------------------------------------- *)
  (* Engine instance: shared state of one block execution.                  *)
  (* ---------------------------------------------------------------------- *)

  (* Batched per-worker stat slots (see [local_stats] below): one index per
     counter that the step loop accumulates. The registry counter names live
     in [stat_names], in slot order. *)
  let stat_incarnations = 0

  let stat_dep_aborts = 1
  let stat_validations = 2
  let stat_val_aborts = 3
  let stat_preval_skips = 4
  let stat_resumptions = 5
  let stat_discarded = 6
  let stat_vm_reads = 7
  let stat_vm_writes = 8
  let stat_value_prune_hits = 9
  let stat_delta_applies = 10
  let stat_cold_reads = 11
  let stat_spec_skips = 12

  let stat_names =
    [|
      "incarnations";
      "dependency_aborts";
      "validations";
      "validation_aborts";
      "prevalidation_skips";
      "resumptions";
      "discarded_suspensions";
      "vm_reads";
      "vm_writes";
      "value_prune_hits";
      "delta_applies";
      "cold_reads";
      "spec_skips";
    |]

  type 'o instance = {
    txns : 'o txn array;
    storage : (L.t, V.t) Intf.storage;
    probe : (L.t, V.t) Intf.storage_nb option;
        (* Non-blocking storage view. When present, the VM's storage
           fall-through goes through it; a [Cold] answer either pays the
           fetch inline or (cold_read_suspend) suspends the transaction. *)
    mv : Mv.t;
    sched : Scheduler.t;
    dag : Spec_dag.t option;
        (* Spec-derived dependency DAG (spec_dag mode): replaces the
           collaborative scheduler as the task source; [sched] still exists
           but issues no tasks (its counters stay at their initial state). *)
    indep : bool array;
        (* [indep.(j)]: transaction j's static spec is disjoint from every
           other transaction's, so its reads can never be invalidated — its
           validation tasks short-circuit to success ([spec_skips]) and, in
           targeted mode, its reads skip the reader registries. All-false
           unless [specs] were given (DESIGN.md §15). *)
    cfg : config;
    outputs : 'o txn_output option array;
        (* Slot [j] is written only by the executor of tx_j's incarnations
           (sequential per Corollary 1) and read after all domains join. *)
    suspensions : 'o suspension_slot array;
        (* Stashed continuation per transaction (suspend_resume mode). The
           slot is written by the executor of incarnation i after blocking
           and consumed (exchanged) by the executor of incarnation i+1;
           incarnations of one transaction never overlap (Corollary 1), but
           we use an Atomic for the cross-domain happens-before edge. *)
    obs : Metrics.t;
        (* Engine counters live in per-domain padded cells — no cross-domain
           contention on the hot path (previously: shared atomics). *)
    ctab : Metrics.counter array;
        (* Batch-flushed counters, indexed by the [stat_*] constants. *)
    c_commits : Metrics.counter;
    c_targeted : Metrics.counter;
        (* Scheduler-sourced targeted counters, synced once in [finalize];
           [metrics_of] reads the scheduler directly so the record is always
           current. *)
    c_suffix_avoided : Metrics.counter;
    c_targeted_fallbacks : Metrics.counter;
    h_exec_ns : Metrics.histogram;
        (* Step-duration histograms, observed only when tracing is on (the
           untraced loop takes no timestamps). *)
    h_val_ns : Metrics.histogram;
    h_commit_ns : Metrics.histogram;
        (* Time-to-commit per transaction (rolling_commit only). *)
    h_reader_occ : Metrics.histogram;
        (* Per-location reader-registry occupancy, observed in [finalize]
           (targeted_validation only). *)
    trace : Trace.t option;
    (* Rolling-commit streaming state. [commit_ns.(j)] is written once, by
       whichever domain commits j (under the scheduler's commit mutex), and
       read after all domains join. [t0_ns] is the latency origin. *)
    t0_ns : int;
    commit_ns : int array;
    exec_ns : int array;
        (* Slot [j] is written only by the executor of tx_j's incarnations
           (sequential per Corollary 1, same argument as [outputs]) and read
           after all domains join. Each incarnation overwrites, so the final
           value is the committed incarnation's. *)
    on_commit : (int -> 'o txn_output -> unit) option;
    on_flush : ((L.t * V.t) array -> unit) option;
        (* Committed-prefix flush sink (rolling_commit only): forwarded to
           MVMemory's [flush_committed ~on_batch], which delivers batches in
           commit order from inside its flush critical section. *)
  }

  and 'o suspension_slot = 'o suspension option Atomic.t

  and 'o suspension = {
    s_resume : (unit, 'o vm_outcome) Effect.Deep.continuation;
    s_prefix : (L.t * Read_origin.t) array;
        (** Read log at suspension time: must still validate before the
            continuation may be resumed. *)
  }

  (** Outcome of running (or resuming) the VM for one incarnation. *)
  and 'o vm_outcome =
    | Vm_done of 'o vm_result
    | Vm_blocked of {
        blocking : int;
        reads_so_far : int;
        suspension : 'o suspension option;
            (** Present in suspend_resume mode: the captured continuation
                plus the read prefix observed before the blocking read. *)
      }
    | Vm_cold of {
        c_fetch : unit -> unit;
            (** Completes the storage fetch; afterwards the probe hits. *)
        c_reads : int;
        c_suspension : 'o suspension;
            (** Always present: cold suspension exists only to park the
                continuation across the fetch (cold_read_suspend mode). *)
      }

  and 'o vm_result = {
    vm_read_set : Mv.read_set;
    vm_write_set : Mv.write_set;
    vm_delta_set : Mv.delta_set;
        (** Composed commutative delta per location (delta_ops mode). *)
    vm_output : 'o txn_output;
    vm_reads : int;  (** Dynamic read count (cost accounting). *)
    vm_writes : int;
        (** Distinct locations written or delta'd (cost accounting). *)
  }

  (* ---------------------------------------------------------------------- *)
  (* Static access specs: independence and the dependency DAG (§15)         *)
  (* ---------------------------------------------------------------------- *)

  (* Total order on spec entries (dedup); Exact entries order by L.compare. *)
  let entry_cmp (a : L.t Access_spec.entry) (b : L.t Access_spec.entry) : int =
    match (a, b) with
    | Access_spec.Exact x, Access_spec.Exact y -> L.compare x y
    | Access_spec.Exact _, _ -> -1
    | _, Access_spec.Exact _ -> 1
    | Access_spec.Wildcard x, Access_spec.Wildcard y -> String.compare x y
    | Access_spec.Wildcard _, _ -> -1
    | _, Access_spec.Wildcard _ -> 1
    | Access_spec.Unknown, Access_spec.Unknown -> 0

  (* Which transactions' specs are disjoint from every other transaction's?
     Computed with per-location and per-namespace access counts instead of
     the O(n^2) pairwise test. Transaction j is independent iff its spec is
     all-Exact and (a) no other transaction may write any location j reads
     or writes, and (b) no other transaction may read any location j
     writes. Wildcard/Unknown entries of OTHER transactions count against j
     through the namespace ([loc_namespace]) or, absent one, against
     everything — conservative in exactly the direction soundness needs. *)
  let spec_independence ?loc_namespace (specs : L.t Access_spec.t array) :
      bool array =
    let n = Array.length specs in
    let rd = LTbl.create (4 * n) and wr = LTbl.create (4 * n) in
    let wild_r = Hashtbl.create 8 and wild_w = Hashtbl.create 8 in
    let unk_r = ref 0 and unk_w = ref 0 in
    let bump_loc tbl l =
      match LTbl.find_opt tbl l with
      | Some r -> incr r
      | None -> LTbl.add tbl l (ref 1)
    in
    let bump_ns tbl r =
      match Hashtbl.find_opt tbl r with
      | Some c -> incr c
      | None -> Hashtbl.add tbl r (ref 1)
    in
    let count tbl l =
      match LTbl.find_opt tbl l with Some r -> !r | None -> 0
    in
    let count_ns tbl r =
      match Hashtbl.find_opt tbl r with Some c -> !c | None -> 0
    in
    (* Count each transaction's distinct entries once, so a transaction's
       own contribution to a per-location count is exactly 0 or 1. *)
    let deduped = Array.make n Access_spec.empty in
    Array.iteri
      (fun j (s : L.t Access_spec.t) ->
        let d =
          {
            Access_spec.reads = List.sort_uniq entry_cmp s.reads;
            writes = List.sort_uniq entry_cmp s.writes;
          }
        in
        deduped.(j) <- d;
        let side unk wild loc_tbl =
          List.iter (function
            | Access_spec.Exact l -> bump_loc loc_tbl l
            | Access_spec.Wildcard r -> bump_ns wild r
            | Access_spec.Unknown -> incr unk)
        in
        side unk_r wild_r rd d.Access_spec.reads;
        side unk_w wild_w wr d.Access_spec.writes)
      specs;
    let total_wild tbl = Hashtbl.fold (fun _ c acc -> acc + !c) tbl 0 in
    let wild_hits tbl l =
      (* Wildcard entries of other transactions that may cover [l]. The
         independent transaction itself is all-Exact, so every wildcard in
         the tables belongs to another transaction. *)
      match loc_namespace with
      | Some ns -> count_ns tbl (ns l)
      | None -> total_wild tbl
    in
    Array.map
      (fun (s : L.t Access_spec.t) ->
        Access_spec.all_exact s
        && !unk_w = 0
        && (s.Access_spec.writes = [] || !unk_r = 0)
        && (let mem entries l =
              List.exists
                (function
                  | Access_spec.Exact x -> L.equal x l | _ -> false)
                entries
            in
            List.for_all
              (fun l ->
                count wr l - (if mem s.Access_spec.writes l then 1 else 0) = 0
                && wild_hits wild_w l = 0)
              (Access_spec.exact_locs s.Access_spec.reads)
            && List.for_all
                 (fun l ->
                   count wr l = 1
                   && count rd l
                      - (if mem s.Access_spec.reads l then 1 else 0)
                      = 0
                   && wild_hits wild_w l = 0
                   && wild_hits wild_r l = 0)
                 (Access_spec.exact_locs s.Access_spec.writes)))
      deduped

  (* Dependency edges of the spec DAG (spec_dag mode): transaction j waits
     for EVERY lower transaction whose write spec contains a location j
     reads — all potential writers, not just the highest, because a sound
     spec may overdeclare: if the highest declared writer dynamically skips
     the write, the read falls through to the next lower version, which
     must therefore also be final. WAW/WAR edges are unnecessary — MVMemory
     entries are keyed by transaction index, so a read at j only ever
     observes versions below j and the snapshot takes the highest write per
     location regardless of arrival order. A transaction with any
     non-Exact entry becomes an order barrier: it waits for everything
     since the previous barrier (and the barrier chain covers the rest
     transitively), and later transactions wait for it. *)
  let spec_dag_preds (specs : L.t Access_spec.t array) : int list array =
    let n = Array.length specs in
    let preds = Array.make n [] in
    let writers : int list ref LTbl.t = LTbl.create (4 * n) in
    let last_barrier = ref (-1) in
    for j = 0 to n - 1 do
      let s = specs.(j) in
      let base = if !last_barrier >= 0 then [ !last_barrier ] else [] in
      if Access_spec.all_exact s then begin
        let ps = ref base in
        List.iter
          (fun l ->
            match LTbl.find_opt writers l with
            | Some lst -> ps := List.rev_append !lst !ps
            | None -> ())
          (Access_spec.exact_locs s.Access_spec.reads);
        preds.(j) <- List.sort_uniq compare !ps;
        List.iter
          (fun l ->
            match LTbl.find_opt writers l with
            | Some lst -> lst := j :: !lst
            | None -> LTbl.add writers l (ref [ j ]))
          (Access_spec.exact_locs s.Access_spec.writes)
      end
      else begin
        (* Barrier: wait for everything since the previous barrier. *)
        let ps = ref base in
        for i = !last_barrier + 1 to j - 1 do
          ps := i :: !ps
        done;
        preds.(j) <- !ps;
        last_barrier := j;
        (* Earlier writers are now covered transitively through j. *)
        LTbl.reset writers
      end
    done;
    preds

  let create_instance ?(config = default_config) ?declared_writes ?trace
      ?on_commit ?on_flush ?probe ?specs ?loc_namespace ~storage
      (txns : 'o txn array) : 'o instance =
    let n = Array.length txns in
    if config.num_domains < 1 then
      invalid_arg "Block_stm: num_domains must be >= 1";
    if on_commit <> None && not config.rolling_commit then
      invalid_arg "Block_stm: on_commit requires rolling_commit";
    if on_flush <> None && not config.rolling_commit then
      invalid_arg "Block_stm: on_flush requires rolling_commit";
    (match trace with
    | Some tr when Trace.num_workers tr < config.num_domains ->
        invalid_arg "Block_stm: trace has fewer workers than num_domains"
    | _ -> ());
    if config.mv_nshards < 1 then
      invalid_arg "Block_stm: mv_nshards must be >= 1";
    if config.targeted_validation && not config.use_estimates then
      (* Without ESTIMATE markers an aborted write disappears silently, so
         readers racing the abort window cannot be pinned down by either the
         abort-time or the record-time registry collection. *)
      invalid_arg "Block_stm: targeted_validation requires use_estimates";
    (match specs with
    | Some sp when Array.length sp <> n ->
        invalid_arg "Block_stm: specs length mismatch"
    | _ -> ());
    if config.static_specs && specs = None then
      invalid_arg "Block_stm: static_specs requires specs";
    if config.static_specs && not config.use_estimates then
      invalid_arg "Block_stm: static_specs requires use_estimates";
    if config.static_specs && config.prefill_estimates then
      (* Both would seed ESTIMATE markers; pick one source. *)
      invalid_arg "Block_stm: static_specs conflicts with prefill_estimates";
    if config.spec_dag then begin
      if specs = None then invalid_arg "Block_stm: spec_dag requires specs";
      if
        config.static_specs || config.prefill_estimates
        || config.rolling_commit || config.targeted_validation
        || config.suspend_resume || config.cold_read_suspend
        || config.delta_ops
      then
        invalid_arg
          "Block_stm: spec_dag is incompatible with the optimistic-machinery \
           options (static_specs / prefill_estimates / rolling_commit / \
           targeted_validation / suspend_resume / cold_read_suspend / \
           delta_ops)";
      if declared_writes <> None then
        invalid_arg "Block_stm: spec_dag takes specs, not declared_writes"
    end;
    let mv =
      Mv.create ~nshards:config.mv_nshards
        ~targeted:config.targeted_validation ~storage ~block_size:n ()
    in
    (if config.prefill_estimates then
       match declared_writes with
       | None ->
           invalid_arg "Block_stm: prefill_estimates needs declared_writes"
       | Some dw ->
           if Array.length dw <> n then
             invalid_arg "Block_stm: declared_writes length mismatch";
           Array.iteri (fun j locs -> Mv.prefill_estimates mv j locs) dw);
    (if config.static_specs then
       match specs with
       | None -> assert false (* checked above *)
       | Some sp ->
           Array.iteri
             (fun j s ->
               match Access_spec.exact_writes s with
               | Some locs when Array.length locs > 0 ->
                   Mv.prefill_estimates mv j locs
               | _ -> ())
             sp);
    let obs =
      (* 13 stat slots + 4 named counters; leave headroom for probes. *)
      Metrics.create ~max_domains:(config.num_domains + 1) ~max_counters:24 ()
    in
    {
      txns;
      storage;
      probe;
      mv;
      dag =
        (if config.spec_dag then
           Some (Spec_dag.create ~preds:(spec_dag_preds (Option.get specs)))
         else None);
      indep =
        (match specs with
        | Some sp when not config.spec_dag ->
            spec_independence ?loc_namespace sp
        | _ -> Array.make n false);
      sched =
        Scheduler.create ~targeted:config.targeted_validation ~block_size:n ();
      cfg = config;
      outputs = Array.make n None;
      suspensions = Array.init n (fun _ -> Atomic.make None);
      obs;
      ctab = Array.map (Metrics.counter obs) stat_names;
      c_commits = Metrics.counter obs "commits";
      c_targeted = Metrics.counter obs "targeted_validations";
      c_suffix_avoided = Metrics.counter obs "suffix_validations_avoided";
      c_targeted_fallbacks = Metrics.counter obs "targeted_fallbacks";
      h_exec_ns = Metrics.histogram obs "exec_step_ns";
      h_val_ns = Metrics.histogram obs "validation_step_ns";
      h_commit_ns = Metrics.histogram obs "commit_latency_ns";
      h_reader_occ = Metrics.histogram obs "reader_registry_occupancy";
      trace;
      t0_ns = Trace.now_ns ();
      commit_ns = (if config.rolling_commit then Array.make n (-1) else [||]);
      exec_ns = (if config.record_exec_ns then Array.make n 0 else [||]);
      on_commit;
      on_flush;
    }

  (* ---------------------------------------------------------------------- *)
  (* Algorithm 4: the VM — speculative execution with instrumented accesses *)
  (* ---------------------------------------------------------------------- *)

  type _ Effect.t += Blocked_read : int -> unit Effect.t

  (* Performed when the storage probe answers [Cold] in cold_read_suspend
     mode; carries the fetch thunk for the handler's caller to run. *)
  type _ Effect.t += Cold_read : (unit -> unit) -> unit Effect.t

  exception Discarded_suspension

  (* Per-worker reusable VM buffers: the read log (a growable array) and the
     own-writes table are reset and reused across incarnations on the same
     domain, so recording a read costs one tuple, not a cons cell plus a
     whole-log reverse-and-copy at the end. Held in domain-local storage;
     see [vm_execute] for the one mode that cannot reuse them. *)
  type scratch = {
    mutable r_buf : (L.t * Read_origin.t) array;
    mutable r_len : int;
    s_writes : V.t LTbl.t;
    mutable s_worder : L.t list;  (** Write order, reversed; writes are few. *)
    s_deltas : (int * Delta.t) LTbl.t;
        (** Pending composed delta per location (delta_ops mode): the
            external materialized base observed at the first delta op, and
            the composition of every delta op since. *)
    mutable s_dorder : L.t list;  (** Delta order, reversed. *)
  }

  let fresh_scratch () =
    {
      r_buf = [||];
      r_len = 0;
      s_writes = LTbl.create 64;
      s_worder = [];
      s_deltas = LTbl.create 8;
      s_dorder = [];
    }

  let scratch_key = Domain.DLS.new_key fresh_scratch

  let push_read (sc : scratch) entry : unit =
    let cap = Array.length sc.r_buf in
    if sc.r_len = cap then begin
      let grown = Array.make (max 64 (2 * cap)) entry in
      Array.blit sc.r_buf 0 grown 0 sc.r_len;
      sc.r_buf <- grown
    end;
    sc.r_buf.(sc.r_len) <- entry;
    sc.r_len <- sc.r_len + 1

  (* Executes the transaction's code, intercepting reads and writes. Never
     touches MVMemory or Storage mutably. Returns [Vm_blocked] when a read
     observed an ESTIMATE written by a lower transaction; in suspend_resume
     mode the blocked outcome carries a resumable continuation.

     suspend_resume allocates fresh buffers instead of the domain scratch: a
     captured continuation closes over the buffers, and the next incarnation
     may run on a different domain — or this domain may run other
     incarnations first, which would clobber the suspended state.

     Cold suspensions (cold_read_suspend without suspend_resume) DO reuse the
     domain scratch: [finish_task] hands the execution task straight back to
     the same worker, which runs the fetch and retries before starting any
     other incarnation on this domain, so nothing can clobber the scratch
     while the continuation is parked. *)
  let vm_execute (inst : 'o instance) ~(txn_idx : int) : 'o vm_outcome =
    let txn = inst.txns.(txn_idx) in
    (* Spec-independent transactions (DESIGN.md §15) skip reader
       registration in targeted mode: no lower transaction can ever write
       what they read, so they can never need revalidation. *)
    let register = not inst.indep.(txn_idx) in
    let sc =
      if inst.cfg.suspend_resume then fresh_scratch ()
      else Domain.DLS.get scratch_key
    in
    sc.r_len <- 0;
    LTbl.clear sc.s_writes;
    sc.s_worder <- [];
    LTbl.clear sc.s_deltas;
    sc.s_dorder <- [];
    let nreads = ref 0 in
    (* Storage fall-through, routed through the non-blocking probe when one
       is wired. A [Cold] miss either suspends the transaction across the
       fetch (cold_read_suspend: the retried probe after resumption hits the
       warmed cache) or pays the fetch latency inline. *)
    let storage_read loc =
      match inst.probe with
      | None -> inst.storage loc
      | Some probe ->
          let rec go () =
            match probe loc with
            | Intf.Hit v -> v
            | Intf.Cold fetch ->
                if inst.cfg.cold_read_suspend then begin
                  Effect.perform (Cold_read (fun () -> ignore (fetch ())));
                  go ()
                end
                else fetch ()
          in
          go ()
    in
    let read loc =
      incr nreads;
      match LTbl.find_opt sc.s_writes loc with
      | Some v -> Some v (* read-your-writes: not recorded in the read-set *)
      | None -> (
          match LTbl.find_opt sc.s_deltas loc with
          | Some (b, c) ->
              (* Value read over this transaction's own pending delta: the
                 external observation is the materialized base [b] — pin it
                 exactly, since the returned value depends on it. *)
              push_read sc (loc, Read_origin.Counter b);
              Some (V.of_counter (b + c.Delta.net))
          | None ->
              let rec attempt () =
                match Mv.read ~register inst.mv loc ~txn_idx with
                | Mv.Read_error { blocking_txn_idx } ->
                    if inst.cfg.suspend_resume then begin
                      (* Suspend here; when resumed, retry this same read. *)
                      Effect.perform (Blocked_read blocking_txn_idx);
                      attempt ()
                    end
                    else raise (Dependency blocking_txn_idx)
                | Mv.Not_found ->
                    let v = storage_read loc in
                    push_read sc (loc, Read_origin.Storage);
                    v
                | Mv.Ok (version, value) ->
                    push_read sc (loc, Read_origin.Mv version);
                    Some value
                | Mv.Merged { value } ->
                    (* Value read over lower transactions' delta entries:
                       version-free, so pin the exact materialized sum. *)
                    push_read sc (loc, Read_origin.Counter value);
                    Some (V.of_counter value)
              in
              attempt ())
    in
    let write loc v =
      if LTbl.length sc.s_deltas > 0 then LTbl.remove sc.s_deltas loc;
      if not (LTbl.mem sc.s_writes loc) then sc.s_worder <- loc :: sc.s_worder;
      LTbl.replace sc.s_writes loc v
    in
    (* delta_ops off: route delta ops through the instrumented read/write
       pair — exactly the sequential fallback, so recorded read/write sets
       (and therefore scheduling and validation) are byte-identical to a
       build without delta support. *)
    let delta_off = Txn.rmw_delta ~read ~write ~as_counter:V.as_counter
        ~of_counter:V.of_counter in
    (* delta_ops on: accumulate a composed pending delta per location and
       record a Range descriptor over its admissible bases (DESIGN.md §12),
       instead of a value-equality read that concurrent increments abort. *)
    let delta_on loc (d : Delta.t) : Txn.delta_outcome =
      incr nreads;
      match LTbl.find_opt sc.s_writes loc with
      | Some v -> (
          (* Own plain write buffered: plain read-modify-write on it. *)
          match V.as_counter v with
          | None -> Txn.Not_a_counter
          | Some b -> (
              match Delta.apply d b with
              | Some r ->
                  LTbl.replace sc.s_writes loc (V.of_counter r);
                  Txn.Applied
              | None -> Txn.Bounds_violation))
      | None -> (
          match LTbl.find_opt sc.s_deltas loc with
          | Some (b, c) -> (
              let c' = Delta.compose c d in
              match Delta.apply c' b with
              | Some _ ->
                  LTbl.replace sc.s_deltas loc (b, c');
                  let rlo, rhi = Delta.admissible c' in
                  push_read sc (loc, Read_origin.Range { rlo; rhi });
                  Txn.Applied
              | None ->
                  (* The outcome leaked the exact base: pin it. *)
                  push_read sc (loc, Read_origin.Counter b);
                  Txn.Bounds_violation)
          | None -> (
              (* First delta op on this location: materialize the external
                 integer base (same walk the read path does). *)
              let rec ext () =
                match Mv.read ~register inst.mv loc ~txn_idx with
                | Mv.Read_error { blocking_txn_idx } ->
                    if inst.cfg.suspend_resume then begin
                      Effect.perform (Blocked_read blocking_txn_idx);
                      ext ()
                    end
                    else raise (Dependency blocking_txn_idx)
                | Mv.Merged { value } -> Some value
                | Mv.Ok (_, value) -> V.as_counter value
                | Mv.Not_found -> (
                    match storage_read loc with
                    | None -> Some 0 (* absent counts as 0 *)
                    | Some v -> V.as_counter v)
              in
              match ext () with
              | None ->
                  push_read sc (loc, Read_origin.Not_counter);
                  Txn.Not_a_counter
              | Some b -> (
                  match Delta.apply d b with
                  | Some _ ->
                      LTbl.replace sc.s_deltas loc (b, d);
                      sc.s_dorder <- loc :: sc.s_dorder;
                      let rlo, rhi = Delta.admissible d in
                      push_read sc (loc, Read_origin.Range { rlo; rhi });
                      Txn.Applied
                  | None ->
                      push_read sc (loc, Read_origin.Counter b);
                      Txn.Bounds_violation)))
    in
    let delta = if inst.cfg.delta_ops then delta_on else delta_off in
    let finish vm_output ~keep_writes =
      let vm_read_set = Array.sub sc.r_buf 0 sc.r_len in
      let vm_write_set =
        if keep_writes then
          (* Deterministic order: first-write order of distinct locations. *)
          sc.s_worder |> List.rev
          |> List.map (fun loc -> (loc, LTbl.find sc.s_writes loc))
          |> Array.of_list
        else [||]
      in
      let vm_delta_set =
        (* First-delta order; a later plain write to the location removed
           its pending delta, so filter through the live table. *)
        if keep_writes && sc.s_dorder <> [] then
          sc.s_dorder |> List.rev
          |> List.filter_map (fun loc ->
                 match LTbl.find_opt sc.s_deltas loc with
                 | Some (_, c) -> Some (loc, c)
                 | None -> None)
          |> Array.of_list
        else [||]
      in
      {
        vm_read_set;
        vm_write_set;
        vm_delta_set;
        vm_output;
        vm_reads = !nreads;
        vm_writes = LTbl.length sc.s_writes + Array.length vm_delta_set;
      }
    in
    Effect.Deep.match_with
      (fun () -> txn { Txn.read; write; delta })
      ()
      {
        retc =
          (fun output -> Vm_done (finish (Success output) ~keep_writes:true));
        exnc =
          (fun e ->
            match e with
            | Dependency blocking ->
                Vm_blocked
                  { blocking; reads_so_far = !nreads; suspension = None }
            | e ->
                (* The VM captures transaction failures (§4): the incarnation
                   commits with no writes. Validation still covers the
                   observed read-set, so failures caused purely by
                   inconsistent speculative reads get re-executed. *)
                Vm_done
                  (finish (Failed (Printexc.to_string e)) ~keep_writes:false));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Blocked_read blocking ->
                Some
                  (fun (k : (a, 'o vm_outcome) Effect.Deep.continuation) ->
                    Vm_blocked
                      {
                        blocking;
                        reads_so_far = !nreads;
                        suspension =
                          Some
                            {
                              s_resume = k;
                              s_prefix = Array.sub sc.r_buf 0 sc.r_len;
                            };
                      })
            | Cold_read fetch ->
                Some
                  (fun (k : (a, 'o vm_outcome) Effect.Deep.continuation) ->
                    Vm_cold
                      {
                        c_fetch = fetch;
                        c_reads = !nreads;
                        c_suspension =
                          {
                            s_resume = k;
                            s_prefix = Array.sub sc.r_buf 0 sc.r_len;
                          };
                      })
            | _ -> None);
      }

  (* Re-validate a suspension's read prefix (the §7 "validate the reads that
     happened during the execution prefix upon resumption"). *)
  let prefix_valid (inst : _ instance) ~txn_idx prefix : bool =
    Array.for_all
      (fun (loc, (origin : Read_origin.t)) ->
        Mv.validate_origin inst.mv loc ~txn_idx origin)
      prefix

  (* ---------------------------------------------------------------------- *)
  (* Algorithm 1: per-task handlers and the worker loop                     *)
  (* ---------------------------------------------------------------------- *)

  (** What a single engine step did — consumed by the virtual-time simulator
      for cost accounting, and by tests. *)
  type step_event = Step_event.t =
    | Executed of { version : Version.t; reads : int; writes : int }
    | Exec_dependency of { version : Version.t; blocking : int; reads : int }
    | Validated of { version : Version.t; aborted : bool; reads : int }
    | Got_task
    | No_task
    | Committed of { upto : int; count : int }
    | Cold_fetch of { version : Version.t; reads : int }

  (* §4 optimization: before re-running the VM, re-read the previous
     incarnation's read-set; return the first blocking transaction if any
     location now carries an ESTIMATE. *)
  let find_read_set_dependency (inst : _ instance) ~txn_idx : int option =
    let prior = Mv.last_read_set inst.mv txn_idx in
    let n = Array.length prior in
    let rec scan i =
      if i >= n then None
      else
        match Mv.read inst.mv (fst prior.(i)) ~txn_idx with
        | Mv.Read_error { blocking_txn_idx } -> Some blocking_txn_idx
        | _ -> scan (i + 1)
    in
    scan 0

  (** Work whose observable reads have happened but whose effects are not
      yet applied. The two-phase split exists for the virtual-time simulator:
      [start_task] performs everything a real thread would do {e at the start
      of} a task (claiming, VM execution reads, validation re-reads), and
      [finish_task] applies the state mutations a real thread performs {e at
      the end} (recording writes, abort bookkeeping, follow-up scheduling).
      The real domain-based executor calls them back to back. *)
  type 'o pending =
    | P_exec of { version : Version.t; vm : 'o vm_result; prefix_paid : int }
        (** [prefix_paid]: reads already performed (and charged) by the
            suspended predecessor this execution resumed — discounted by
            cost models. 0 for fresh executions. *)
    | P_exec_dep of {
        version : Version.t;
        blocking : int;
        reads : int;
        suspension : 'o suspension option;
      }
    | P_exec_cold of {
        version : Version.t;
        reads : int;
        fetch : unit -> unit;
        suspension : 'o suspension;
      }
        (** Execution parked on a cold storage read (cold_read_suspend):
            {!finish_task} stashes the continuation, runs the fetch, and
            hands the execution task back for an immediate same-worker
            retry (no scheduler abort — the incarnation is still live). *)
    | P_val of { version : Version.t; wave : int; valid : bool; reads : int }

  (** Planned work profile of a pending task, for cost models. *)
  let pending_profile : _ pending -> [ `Exec of int * int | `Dep of int | `Val of int ]
      = function
    | P_exec { vm; prefix_paid; _ } ->
        `Exec (max 0 (vm.vm_reads - prefix_paid), vm.vm_writes)
    | P_exec_dep { reads; _ } -> `Dep reads
    (* The simulator never wires a probe, so this only shows up for real
       executions; profile like a dependency stop. *)
    | P_exec_cold { reads; _ } -> `Dep reads
    | P_val { reads; _ } -> `Val reads

  (* Per-worker batched metric accumulation: the step loop counts into a
     plain int array — one slot per [stat_*] constant, mirroring the
     instance's [ctab] — and flushes once (via [Metrics.add]) when the
     worker loop exits, so the hot path never touches the shared registry
     cells. Table-driven: adding a counter means adding a slot constant, a
     name in [stat_names], and the [bump] call sites. The public
     {!start_task}/{!finish_task} wrappers flush per call, keeping counter
     visibility unchanged for external drivers (the virtual-time simulator
     reads metrics between steps). *)
  type local_stats = int array

  let fresh_stats () : local_stats = Array.make (Array.length stat_names) 0
  let bump (s : local_stats) i = s.(i) <- s.(i) + 1
  let bump_by (s : local_stats) i n = s.(i) <- s.(i) + n

  let flush_stats (inst : _ instance) (s : local_stats) : unit =
    Array.iteri
      (fun i n ->
        if n <> 0 then begin
          Metrics.add inst.ctab.(i) n;
          s.(i) <- 0
        end)
      s

  let start_task_s (inst : 'o instance) (stats : local_stats)
      (task : Scheduler.task) : 'o pending =
    match task with
    | Scheduler.Execution version -> (
        let txn_idx = Version.txn_idx version in
        let incarnation = Version.incarnation version in
        (* suspend_resume (§7): if the previous incarnation suspended
           mid-execution, resume its continuation provided the read prefix
           still validates; otherwise discard it and start over. *)
        let stashed =
          if inst.cfg.suspend_resume || inst.cfg.cold_read_suspend then
            Atomic.exchange inst.suspensions.(txn_idx) None
          else None
        in
        let t0 = if inst.cfg.record_exec_ns then Trace.now_ns () else 0 in
        let outcome, prefix_paid =
          match stashed with
          | Some s when prefix_valid inst ~txn_idx s.s_prefix ->
              bump stats stat_resumptions;
              (Effect.Deep.continue s.s_resume (), Array.length s.s_prefix)
          | Some s ->
              bump stats stat_discarded;
              (* Unwind the abandoned fiber; its outcome (a Failed result
                 produced by the handler's exnc) is irrelevant. *)
              (try
                 ignore
                   (Effect.Deep.discontinue s.s_resume Discarded_suspension)
               with _ -> ());
              (vm_execute inst ~txn_idx, 0)
          | None ->
              let blocked =
                if
                  inst.cfg.prevalidate_reads && incarnation > 0
                  && not inst.indep.(txn_idx)
                then (
                  match find_read_set_dependency inst ~txn_idx with
                  | Some b ->
                      bump stats stat_preval_skips;
                      Some b
                  | None -> None)
                else None
              in
              ( (match blocked with
                | Some b ->
                    Vm_blocked
                      { blocking = b; reads_so_far = 0; suspension = None }
                | None -> vm_execute inst ~txn_idx),
                0 )
        in
        (if inst.cfg.record_exec_ns then
           match outcome with
           | Vm_done _ -> inst.exec_ns.(txn_idx) <- Trace.now_ns () - t0
           | Vm_blocked _ | Vm_cold _ -> ());
        match outcome with
        | Vm_blocked { blocking; reads_so_far; suspension } ->
            P_exec_dep { version; blocking; reads = reads_so_far; suspension }
        | Vm_cold { c_fetch; c_reads; c_suspension } ->
            P_exec_cold
              { version; reads = c_reads; fetch = c_fetch;
                suspension = c_suspension }
        | Vm_done vm -> P_exec { version; vm; prefix_paid })
    | Scheduler.Validation (version, wave) ->
        let txn_idx = Version.txn_idx version in
        if inst.indep.(txn_idx) then begin
          (* Spec-disjoint transaction (DESIGN.md §15): its static spec
             proves no other transaction writes anything it read, so the
             read-set walk is a foregone conclusion — short-circuit it.
             Counted in [spec_skips], not [validations]. *)
          bump stats stat_spec_skips;
          P_val { version; wave; valid = true; reads = 0 }
        end
        else begin
          bump stats stat_validations;
          let reads = Array.length (Mv.last_read_set inst.mv txn_idx) in
          let valid = Mv.validate_read_set inst.mv txn_idx in
          P_val { version; wave; valid; reads }
        end

  let finish_task_s (inst : 'o instance) (stats : local_stats)
      (p : 'o pending) : Scheduler.task option * step_event =
    match p with
    | P_exec { version; vm; prefix_paid = _ } ->
        let txn_idx = Version.txn_idx version in
        let incarnation = Version.incarnation version in
        bump stats stat_incarnations;
        bump_by stats stat_vm_reads vm.vm_reads;
        bump_by stats stat_vm_writes vm.vm_writes;
        bump_by stats stat_delta_applies (Array.length vm.vm_delta_set);
        inst.outputs.(txn_idx) <- Some vm.vm_output;
        let next =
          match inst.dag with
          | Some dag ->
              (* Spec-DAG mode: every predecessor that may write what this
                 transaction reads has already finished, so the write is
                 final — publish it and release the successors. No
                 validation task is ever scheduled. *)
              ignore
                (Mv.record ~deltas:vm.vm_delta_set inst.mv version
                   vm.vm_read_set vm.vm_write_set);
              Spec_dag.finish_execution dag ~txn_idx
          | None ->
          if inst.cfg.targeted_validation then begin
            let o =
              Mv.record_targeted ~deltas:vm.vm_delta_set inst.mv version
                vm.vm_read_set vm.vm_write_set
            in
            bump_by stats stat_value_prune_hits o.Mv.prune_hits;
            let reval =
              match o.Mv.invalidated with
              | Mv.Suffix -> Scheduler.Reval_suffix
              | Mv.Readers rs -> Scheduler.Reval_readers rs
            in
            Scheduler.finish_execution_targeted inst.sched ~txn_idx
              ~incarnation ~wrote_new_location:o.Mv.wrote_new_location ~reval
          end
          else
            let wrote_new_location =
              Mv.record ~deltas:vm.vm_delta_set inst.mv version vm.vm_read_set
                vm.vm_write_set
            in
            Scheduler.finish_execution inst.sched ~txn_idx ~incarnation
              ~wrote_new_location
        in
        (next, Executed { version; reads = vm.vm_reads; writes = vm.vm_writes })
    | P_exec_cold { version; reads; fetch; suspension } ->
        bump stats stat_cold_reads;
        let txn_idx = Version.txn_idx version in
        (* Stash, fetch, then hand the task back: the same worker retries
           immediately (mirroring the resolved-dependency path below), finds
           the suspension, re-validates the prefix and resumes — with the
           retried probe hitting the cache the fetch just warmed. No
           scheduler interaction: the incarnation never aborted, so no other
           domain can claim this transaction meanwhile — which is also what
           makes reusing the domain scratch across the park safe. *)
        Atomic.set inst.suspensions.(txn_idx) (Some suspension);
        fetch ();
        (Some (Scheduler.Execution version), Cold_fetch { version; reads })
    | P_exec_dep { version; blocking; reads; suspension } ->
        bump stats stat_dep_aborts;
        let txn_idx = Version.txn_idx version in
        (* Stash the continuation (if any) before publishing the dependency,
           so whichever thread executes the next incarnation finds it. *)
        (match suspension with
        | Some _ -> Atomic.set inst.suspensions.(txn_idx) suspension
        | None -> ());
        if
          Scheduler.add_dependency inst.sched ~txn_idx
            ~blocking_txn_idx:blocking
        then (None, Exec_dependency { version; blocking; reads })
        else
          (* Dependency already resolved: hand the execution task back so the
             caller immediately retries (paper Line 15). *)
          ( Some (Scheduler.Execution version),
            Exec_dependency { version; blocking; reads } )
    | P_val { version; wave; valid; reads } ->
        let txn_idx = Version.txn_idx version in
        let aborted =
          (not valid) && Scheduler.try_validation_abort inst.sched version
        in
        (* Targeted mode: collect the invalidated readers BEFORE the writes
           become ESTIMATEs — readers that slip past this collection either
           hit the ESTIMATEs or are caught by the re-execution's record. *)
        let invalidated =
          if aborted && inst.cfg.targeted_validation then
            Some
              (match Mv.invalidated_readers inst.mv ~txn_idx with
              | Mv.Suffix -> Scheduler.Reval_suffix
              | Mv.Readers rs -> Scheduler.Reval_readers rs)
          else None
        in
        if aborted then (
          bump stats stat_val_aborts;
          if inst.cfg.use_estimates then
            Mv.convert_writes_to_estimates inst.mv txn_idx
          else Mv.remove_written_entries inst.mv txn_idx);
        let next =
          Scheduler.finish_validation ?invalidated inst.sched ~version ~wave
            ~aborted
        in
        (next, Validated { version; aborted; reads })

  (** Fetch the next task from whichever source drives this instance: the
      spec DAG in [spec_dag] mode, the collaborative scheduler otherwise. *)
  let next_task (inst : _ instance) : Scheduler.task option =
    match inst.dag with
    | Some dag -> Spec_dag.next_task dag
    | None -> Scheduler.next_task inst.sched

  (** Whether every transaction has finished under this instance's task
      source (see {!next_task}). Monotone. *)
  let is_done (inst : _ instance) : bool =
    match inst.dag with
    | Some dag -> Spec_dag.done_ dag
    | None -> Scheduler.done_ inst.sched

  let step_s (inst : _ instance) (stats : local_stats)
      (task : Scheduler.task option) : Scheduler.task option * step_event =
    match task with
    | Some t -> finish_task_s inst stats (start_task_s inst stats t)
    | None -> (
        match next_task inst with
        | Some t -> (Some t, Got_task)
        | None -> (None, No_task))

  (* Public per-call variants: flush the counters immediately so external
     drivers observe every step's metrics, exactly as before batching. *)

  let start_task (inst : 'o instance) (task : Scheduler.task) : 'o pending =
    let stats = fresh_stats () in
    let p = start_task_s inst stats task in
    flush_stats inst stats;
    p

  let finish_task (inst : 'o instance) (p : 'o pending) :
      Scheduler.task option * step_event =
    let stats = fresh_stats () in
    let r = finish_task_s inst stats p in
    flush_stats inst stats;
    r

  (** One step of the Algorithm 1 loop body: run the carried task (start and
      finish back to back), or fetch a new one. Returns the task to carry
      into the next step plus the event describing what happened.
      Thread-safe: any number of domains may call it concurrently. *)
  let step (inst : _ instance) (task : Scheduler.task option) :
      Scheduler.task option * step_event =
    let stats = fresh_stats () in
    let r = step_s inst stats task in
    flush_stats inst stats;
    r

  (* Per-transaction commit hook, run in preset order under the scheduler's
     commit mutex. The transaction's output is final here: EXECUTED implies
     the slot was filled by [finish_task] before the status flip. *)
  let commit_one (inst : 'o instance) (j : int) : unit =
    inst.commit_ns.(j) <- Trace.now_ns () - inst.t0_ns;
    Metrics.incr inst.c_commits;
    Metrics.observe inst.h_commit_ns inst.commit_ns.(j);
    match inst.on_commit with
    | None -> ()
    | Some f -> (
        match inst.outputs.(j) with
        | Some o -> f j o
        | None -> assert false (* EXECUTED implies output recorded *))

  (** Opportunistic rolling-commit step: advance the scheduler's commit
      sweep and flush newly committed transactions out of MVMemory. Returns
      the number of transactions committed by this call. *)
  let maybe_commit (inst : 'o instance) : int =
    if not inst.cfg.rolling_commit then 0
    else begin
      let n =
        Scheduler.try_advance_commit inst.sched ~on_commit:(commit_one inst)
      in
      if n > 0 then
        Mv.flush_committed ?on_batch:inst.on_flush inst.mv
          ~upto:(Scheduler.committed_prefix inst.sched);
      n
    end

  let worker_loop ?(worker = 0) (inst : _ instance) : unit =
    let rolling = inst.cfg.rolling_commit in
    let stats = fresh_stats () in
    (* Idle backoff: a worker that found no task pauses exponentially longer
       ([Domain.cpu_relax]) instead of hammering the scheduler counters,
       which steals cache bandwidth from the domains doing real work. Any
       real step resets the pause to its minimum. *)
    let backoff = Atomic_util.Backoff.create () in
    (match inst.trace with
    | None ->
        (* Untraced hot loop: no timestamps, no event plumbing. *)
        let task = ref None in
        while not (is_done inst) do
          let task', ev = step_s inst stats !task in
          (match ev with
          | No_task -> Atomic_util.Backoff.once backoff
          | _ -> Atomic_util.Backoff.reset backoff);
          if rolling then ignore (maybe_commit inst);
          task := task'
        done
    | Some tr ->
        let ring = Trace.ring tr ~worker in
        let task = ref None in
        while not (is_done inst) do
          let carried = !task in
          let t0 = Trace.now_ns () in
          let task', ev = step_s inst stats carried in
          let t1 = Trace.now_ns () in
          (match carried with
          | Some (Scheduler.Execution _) ->
              Metrics.observe inst.h_exec_ns (t1 - t0)
          | Some (Scheduler.Validation _) ->
              Metrics.observe inst.h_val_ns (t1 - t0)
          | None -> ());
          Trace.record tr ring ~t0_ns:t0 ~t1_ns:t1 ev;
          (match ev with
          | No_task -> Atomic_util.Backoff.once backoff
          | _ -> Atomic_util.Backoff.reset backoff);
          if rolling then begin
            let tc0 = Trace.now_ns () in
            let committed = maybe_commit inst in
            if committed > 0 then
              Trace.record tr ring ~t0_ns:tc0 ~t1_ns:(Trace.now_ns ())
                (Committed
                   {
                     upto = Scheduler.committed_prefix inst.sched;
                     count = committed;
                   })
          end;
          task := task'
        done);
    flush_stats inst stats

  let metrics_of (inst : _ instance) : metrics =
    let v i = Metrics.value inst.ctab.(i) in
    {
      incarnations = v stat_incarnations;
      dependency_aborts = v stat_dep_aborts;
      validations = v stat_validations;
      validation_aborts = v stat_val_aborts;
      prevalidation_skips = v stat_preval_skips;
      resumptions = v stat_resumptions;
      discarded_suspensions = v stat_discarded;
      commits = Metrics.value inst.c_commits;
      (* Scheduler-sourced so the record is current even before [finalize]
         syncs the registry counters. *)
      targeted_validations = Scheduler.targeted_claims inst.sched;
      suffix_validations_avoided = Scheduler.suffix_avoided inst.sched;
      value_prune_hits = v stat_value_prune_hits;
      delta_applies = v stat_delta_applies;
      cold_reads = v stat_cold_reads;
      spec_skips = v stat_spec_skips;
    }

  let sched (inst : _ instance) : Scheduler.t = inst.sched

  let metrics_registry (inst : _ instance) : Metrics.t = inst.obs

  (* Final recorded read-set of a transaction — exposed so tests can assert
     that speculative execution observed exactly the reads a sequential
     execution would have. Only meaningful after all workers joined. *)
  let recorded_read_set (inst : _ instance) (txn_idx : int) :
      (L.t * Read_origin.t) array =
    Mv.last_read_set inst.mv txn_idx

  let committed_prefix (inst : _ instance) : int =
    Scheduler.committed_prefix inst.sched

  let finalize (inst : 'o instance) : 'o result =
    let n = Array.length inst.txns in
    if inst.cfg.targeted_validation then begin
      (* Sync the scheduler-sourced targeted counters into the registry (so
         JSON exports carry them) and sample registry occupancy. [finalize]
         runs once per instance, after the workers joined. *)
      Metrics.add inst.c_targeted (Scheduler.targeted_claims inst.sched);
      Metrics.add inst.c_suffix_avoided (Scheduler.suffix_avoided inst.sched);
      Metrics.add inst.c_targeted_fallbacks
        (Scheduler.targeted_fallbacks inst.sched);
      Mv.iter_reader_registries inst.mv ~f:(fun ~used ~overflowed:_ ->
          Metrics.observe inst.h_reader_occ used)
    end;
    let snapshot =
      if inst.cfg.rolling_commit then begin
        (* Drain the sweep: once the scheduler is done every transaction
           holds an admissible proof (DESIGN.md §8, liveness), so one
           blocking pass commits whatever the in-loop sweeps left over. The
           snapshot is then served from the committed base. *)
        ignore (Scheduler.advance_commit inst.sched ~on_commit:(commit_one inst));
        let prefix = Scheduler.committed_prefix inst.sched in
        if prefix <> n then
          Fmt.failwith
            "Block_stm: rolling commit stalled at %d/%d transactions (txn %d: \
             %a)"
            prefix n prefix Scheduler.pp_commit_evidence
            (Scheduler.commit_evidence inst.sched prefix);
        Mv.flush_committed ?on_batch:inst.on_flush inst.mv ~upto:n;
        Mv.committed_snapshot inst.mv
      end
      else
        (* Lazy block-at-once commit: the paper's final snapshot, computed
           in parallel over the affected locations (§4.1). *)
        Mv.snapshot_parallel ~num_domains:inst.cfg.num_domains inst.mv
    in
    {
      snapshot;
      outputs =
        Array.mapi
          (fun j -> function
            | Some o -> o
            | None ->
                Fmt.failwith "Block_stm: transaction %d has no output" j)
          inst.outputs;
      metrics = metrics_of inst;
      commit_ns = Array.copy inst.commit_ns;
      exec_ns = Array.copy inst.exec_ns;
    }

  (** Execute a block. [storage] is the pre-block state; [txns] the block in
      its preset serialization order. Spawns [config.num_domains - 1] extra
      domains and participates with the calling domain. *)
  let run ?(config = default_config) ?declared_writes ?specs ?loc_namespace
      ?trace ?on_commit ?on_flush ?probe ~storage (txns : 'o txn array) :
      'o result =
    let inst =
      create_instance ~config ?declared_writes ?specs ?loc_namespace ?trace
        ?on_commit ?on_flush ?probe ~storage txns
    in
    if Array.length txns = 0 then
      {
        snapshot = [];
        outputs = [||];
        metrics = metrics_of inst;
        commit_ns = [||];
        exec_ns = [||];
      }
    else begin
      let others =
        Array.init (config.num_domains - 1) (fun i ->
            Domain.spawn (fun () -> worker_loop ~worker:(i + 1) inst))
      in
      worker_loop ~worker:0 inst;
      Array.iter Domain.join others;
      finalize inst
    end
end
