(** The collaborative scheduler (paper Algorithms 5–9), extended with a
    rolling committed-prefix sweep.

    Tracks, for a block of [block_size] transactions, the ordered sets of
    pending execution and validation tasks, each implemented as an atomic
    counter plus the per-transaction status array. Thread-safe: any number
    of domains may call any function concurrently.

    Lifecycle of a transaction's status (paper Figure 2, plus the terminal
    COMMITTED state of the rolling-commit extension):
    {v
      READY_TO_EXECUTE(i) -> EXECUTING(i) -> EXECUTED(i) -> ABORTING(i)
             ^                    |              |                |
             |                    v (dependency) v (commit sweep) |
             +---- incarnation i+1 <---------- COMMITTED ---------+
                                               (terminal)
    v}

    Every scheduler keeps the commit evidence (O(1) per pullback), but only
    a caller that runs the commit sweep (see {!try_advance_commit}) commits
    a prefix; without it the scheduler is the paper's, with the whole block
    committing at once when {!done_} flips (Lemma 2). *)

open Blockstm_kernel

type status_kind =
  | Ready_to_execute
  | Executing
  | Executed
  | Aborting
  | Committed  (** Terminal: set by the rolling-commit sweep, never aborts. *)

val pp_status_kind : Format.formatter -> status_kind -> unit

(** A schedulable unit of work for a specific transaction version. The
    validation payload carries the {e claim wave} — the pullback counter
    observed when the task was created — which a successful validation
    records into the transaction's commit proof. *)
type task =
  | Execution of Version.t
  | Validation of Version.t * int

val pp_task : Format.formatter -> task -> unit

(** Revalidation demand reported by the engine after a mutation (mirrors
    [Mvmemory.invalidation]): the precise invalidated-reader set, or the
    paper's whole-suffix pullback when the readers are unknown (registry
    overflow). *)
type reval = Reval_suffix | Reval_readers of int list

type t

(** [create ~block_size ()] initializes the scheduler: every transaction is
    [Ready_to_execute] at incarnation 0, both task counters at index 0.
    Each pullback stamps O(1) rolling-commit evidence. [targeted] (default
    [false]) allocates the needs-revalidation dirty bitmap drained by
    {!next_task} and enables {!finish_execution_targeted} and the
    [?invalidated] parameter of {!finish_validation} (DESIGN.md §10). *)
val create : ?targeted:bool -> block_size:int -> unit -> t

val block_size : t -> int

val targeted : t -> bool
(** Whether this scheduler was created with [~targeted:true]. *)

(** Claim the lowest-indexed available task, preferring validations when the
    validation counter trails the execution counter (Algorithm 7). In
    targeted mode the needs-revalidation bitmap is drained first: each
    marked transaction yields exactly one validation task per mark (claimed
    lowest-first), with marks on not-yet-EXECUTED transactions dropped (the
    finish of the in-flight incarnation schedules the fresh validation).
    [None] means nothing was ready — which does {e not} imply completion;
    poll {!done_}. *)
val next_task : t -> task option

(** [add_dependency t ~txn_idx ~blocking_txn_idx] parks [txn_idx] (whose
    execution read an ESTIMATE of [blocking_txn_idx]) until the blocking
    transaction's next incarnation completes. Returns [false] if the
    dependency resolved in the meantime — the caller must immediately
    re-execute (paper Line 15). On [true], the caller's execution task is
    finished (the active-task count is released). *)
val add_dependency : t -> txn_idx:int -> blocking_txn_idx:int -> bool

(** [try_validation_abort t version] attempts EXECUTED(i) -> ABORTING(i).
    Only the first failing validation of a given version succeeds; all
    others return [false] and must treat the abort as already handled. A
    [Committed] transaction is final: late-failing stale validations lose
    the race here deterministically. *)
val try_validation_abort : t -> Version.t -> bool

(** Publish the completion of an execution: resumes parked dependents and
    schedules revalidation. When [wrote_new_location] is false and the
    validation sweep is already past this transaction, the single required
    validation task is handed back to the caller (who then owns its
    active-task count). *)
val finish_execution :
  t -> txn_idx:int -> incarnation:int -> wrote_new_location:bool -> task option

(** Targeted-mode {!finish_execution}: the whole-suffix pullback keyed off
    [wrote_new_location] is replaced by the precise revalidation demand
    [reval]. [Reval_readers] marks exactly those transactions in the dirty
    bitmap (stamping their rolling-commit dirty slots) and hands this
    transaction's own validation task back to the caller; [Reval_suffix]
    (registry overflow) reproduces the paper's pullback to [txn_idx].
    [wrote_new_location] only feeds the suffix-validations-avoided metric.
    @raise Invalid_argument if the scheduler is not targeted. *)
val finish_execution_targeted :
  t ->
  txn_idx:int ->
  incarnation:int ->
  wrote_new_location:bool ->
  reval:reval ->
  task option

(** Publish the completion of a validation of [version]. [wave] is the claim
    wave the validation task carried. If [aborted], bumps the transaction to
    the next incarnation, pulls the validation counter back to
    [txn_idx + 1], and — when possible — hands the re-execution task
    straight back to the caller. Otherwise records the (incarnation, wave)
    commit proof consumed by the rolling-commit sweep.

    On a targeted scheduler, [?invalidated] (collected by the engine {e
    before} the aborted writes became ESTIMATEs) refines the abort pullback:
    [Reval_readers] marks exactly those readers and leaves the validation
    index in place; [Reval_suffix] or omission falls back to the paper's
    pullback. Ignored on non-targeted schedulers. *)
val finish_validation :
  ?invalidated:reval ->
  t ->
  version:Version.t ->
  wave:int ->
  aborted:bool ->
  task option

(** Whether the whole block is committed (Theorem 1): set by the
    double-collect in the internal [check_done], which runs whenever a
    counter sweeps past the block. Once [true], it never reverts. *)
val done_ : t -> bool

(** Claim a transaction for execution: READY_TO_EXECUTE -> EXECUTING.
    Exposed for the engine's task handoff; most callers want
    {!next_task}. No effect on the active-task count. *)
val try_incarnate : t -> int -> Version.t option

(** {2 Rolling commit} *)

val committed_prefix : t -> int
(** Length of the committed prefix: transactions [0 .. committed_prefix - 1]
    are final. Monotone; reaches [block_size] by the time {!done_} holds and
    a final {!advance_commit} has run. *)

val try_advance_commit : t -> on_commit:(int -> unit) -> int
(** Opportunistic commit sweep: advances the committed prefix as far as the
    commit rule allows — transaction [j] commits when it is [Executed] and
    a completed successful validation of its current incarnation carries a
    wave at least {!commit_evidence}'s [ev_required] (no suffix pullback to
    [<= j] nor targeted mark of [j] followed the claim). Calls [on_commit j]
    for each newly committed transaction in preset order, while holding the
    commit mutex (hooks are totally ordered across domains). Non-blocking:
    returns 0 immediately if another domain holds the commit mutex. Returns
    the number of transactions committed by this call. *)

val advance_commit : t -> on_commit:(int -> unit) -> int
(** Blocking variant of {!try_advance_commit}, for finalization: after
    {!done_} holds, one call commits every remaining transaction. *)

(** {2 Introspection} — used by tests, the simulator and metrics. *)

val status : t -> int -> int * status_kind
(** Current (incarnation, status) of a transaction. *)

val execution_idx : t -> int
val validation_idx : t -> int
val num_active_tasks : t -> int
val decrease_cnt : t -> int

val targeted_pending : t -> int
(** Marked-but-unclaimed entries in the needs-revalidation bitmap. *)

val targeted_marks : t -> int
(** Total flags ever set in the needs-revalidation bitmap. *)

val targeted_claims : t -> int
(** Validation tasks issued from the targeted queue. *)

val targeted_fallbacks : t -> int
(** Registry-overflow degradations to the paper's suffix pullback. *)

val suffix_avoided : t -> int
(** Estimated validation tasks the paper's suffix pullbacks would have
    scheduled beyond what targeted marking did. *)

val dependents : t -> int -> int list
(** Transactions currently parked on the given transaction. *)

(** What the rolling-commit rule consults for one transaction. *)
type commit_evidence = {
  ev_incarnation : int;  (** Current incarnation. *)
  ev_kind : status_kind;  (** Current status. *)
  ev_proof : int * int;
      (** Commit proof: (incarnation, claim wave) of the last successful
          validation; [(-1, -1)] when there is none. *)
  ev_required : int;
      (** Wave the sweep demands of the proof: the maximum suffix stamp over
          the committed prefix and this transaction, and its targeted-mark
          stamp (a lower bound beyond the first uncommitted transaction). *)
  ev_wave : int;  (** The scheduler's current pullback marker. *)
}

val commit_evidence : t -> int -> commit_evidence
(** Read-only snapshot of a transaction's commit evidence — the state dump
    of a stalled commit sweep. Once every lower transaction has committed,
    the transaction commits when it is [Executed],
    [fst ev_proof = ev_incarnation] and [snd ev_proof >= ev_required].
    Fields are read one at a time, without the commit mutex. *)

val pp_commit_evidence : Format.formatter -> commit_evidence -> unit
