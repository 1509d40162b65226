(* Wall-clock block-stream benchmark.

   Drives blocks into the chain the way a validator does and measures from
   outside, using only the public functions of the libraries. Every workload
   runs the system at its defaults: [Block_stm default_config] with only
   [num_domains] set, the Merkle store, and the chain's default [`Per_block]
   stream mode. See README.md for the workloads, the metrics and what each
   per-layer metric is predicted to move.

   Usage (normally through run.py):
     main.exe --workload W --seed N --seconds S --trace 0|1 --domains D
              [--reference-seed M] [--nproc P] [--git-rev R]
              [--source-digest H]

   [--trace 0] prints the end-to-end metrics; [--trace 1] runs the workload
   untraced and then traced over the same blocks and prints the per-layer
   metrics. Either way the last line of stdout is the result object. *)

open Blockstm_kernel
module Mp = Blockstm_chain.Mempool
module Trace = Blockstm_obs.Trace

let now () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------------ *)
(* Small helpers                                                             *)
(* ------------------------------------------------------------------------ *)

module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a' = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a' 0 b.n;
      b.a <- a'
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

(* Nearest-rank quantile of an unsorted sample; 0 when empty. *)
let quantile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let median xs = quantile xs 0.5
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* Peak resident set of this process (Linux [VmHWM]), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  fi kb /. 1024.

(* The host's CPU time so far and the part of it that the hypervisor gave
   to other guests (the [steal] column of /proc/stat), in clock ticks; zeros
   where the file is missing. Passes are ranked by their steal share, which
   moves every timing of the benchmark (see [main]). *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          Scanf.sscanf (input_line ic) "cpu %d %d %d %d %d %d %d %d"
            (fun us ni sy id io irq sirq st ->
              (us + ni + sy + id + io + irq + sirq + st, st)))
  | exception Sys_error _ -> (0, 0)

let steal_share (t0, s0) (t1, s1) = ratio (fi (s1 - s0)) (fi (t1 - t0))

(* ------------------------------------------------------------------------ *)
(* Per-layer accumulators for the traced run                                 *)
(* ------------------------------------------------------------------------ *)

(* One accumulator per domain (Domain-local storage), so the wrappers around
   the transaction closure, its effects handle and the storage reader never
   write another domain's counters. Every accumulator is registered so the
   benchmark can sum them after each block, once the engine has joined its
   domains. Slots: *)
let k_body = 0 (* closure time, effects calls excluded *)
let k_eff = 1 (* time inside effects calls, storage included *)
let k_reads = 2
let k_read_ns = 3 (* effects reads, storage reads excluded *)
let k_writes = 4
let k_write_ns = 5
let k_deltas = 6
let k_delta_ns = 7 (* storage reads excluded *)
let k_st_reads = 8
let k_st_ns = 9
let fresh_acc () = Array.make 10 0
let accs_m = Mutex.create ()
let accs : int array list ref = ref []

let acc_key =
  Domain.DLS.new_key (fun () ->
      let a = fresh_acc () in
      Mutex.lock accs_m;
      accs := a :: !accs;
      Mutex.unlock accs_m;
      a)

let bump (a : int array) k d = a.(k) <- a.(k) + d

(* Fold every registered accumulator into [into] and zero them. Called
   between blocks, when only the calling domain is alive: accumulators of
   joined domains are dropped from the registry. *)
let harvest (into : int array) =
  let main = Domain.DLS.get acc_key in
  Mutex.lock accs_m;
  List.iter
    (fun a ->
      Array.iteri (bump into) a;
      Array.fill a 0 (Array.length a) 0)
    !accs;
  accs := [ main ];
  Mutex.unlock accs_m

(* ------------------------------------------------------------------------ *)
(* Result reporting                                                          *)
(* ------------------------------------------------------------------------ *)

type outcome = {
  attempted : int;  (** Transactions handed to the chain. *)
  failed : int;
      (** Transactions in blocks that diverged from the sequential
          reference, raised, or were never committed. *)
}

let json_num x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result (o : outcome) (metrics : (string * float * string) list) =
  let ms =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v)
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n\
     %!"
    (o.failed = 0 && o.attempted > 0)
    (max 1 o.attempted) o.failed (String.concat ", " ms)

(* Stall watchdog: a thread of the calling domain (no extra domain) that
   ends the run as failed when no block has been handed over or committed
   for [stall_s] seconds. The stalled transactions count as failed. *)
let handed = Atomic.make 0
let committed = Atomic.make 0
let beats = Atomic.make 0
let stall_s = 30.

let start_watchdog () =
  ignore
    (Thread.create
       (fun () ->
         let last = ref (-1) and since = ref (Unix.gettimeofday ()) in
         while true do
           Thread.delay 1.;
           let b = Atomic.get beats in
           if b <> !last then begin
             last := b;
             since := Unix.gettimeofday ()
           end
           else if Unix.gettimeofday () -. !since > stall_s then begin
             Printf.eprintf "perfbench: no block committed for %.0f s\n%!"
               stall_s;
             let h = Atomic.get handed in
             print_result
               { attempted = h; failed = h - Atomic.get committed }
               [];
             Unix._exit 4
           end
         done)
       ())

(* ------------------------------------------------------------------------ *)
(* The benchmark, generic in the workload's location/value/output types     *)
(* ------------------------------------------------------------------------ *)

module type OUT = sig
  type t

  val equal : t -> t -> bool
end

module Run (L : Intf.LOCATION) (V : Intf.VALUE) (O : OUT) = struct
  module Ch = Blockstm_chain.Chain.Make (L) (V)
  module Bstm = Ch.Bstm
  module Mstore = Ch.Mstore
  module Store = Ch.Store

  type txn = (L.t, V.t, O.t) Txn.t

  (* How blocks reach the chain. *)
  type source =
    | Closed of txn array array
        (** Back-to-back blocks: the next one is handed over as soon as the
            previous state root is out. *)
    | Open of {
        txns : txn array;
        due : int array;  (** Arrival offsets (ns) of each transaction. *)
        cap : int;  (** Block size cap. *)
        deadline_ns : int;  (** Max wait of the oldest due transaction. *)
      }
        (** Seeded arrivals through the mempool, cut by size or deadline. *)

  type inputs = { genesis : Store.t; source : source }

  type reference = {
    roots : int64 array;
    outputs : O.t Txn.output array array;
    ref_ns : int;  (** Sequential execution of all blocks (chain included). *)
  }

  let executor domains =
    Ch.Block_stm { Bstm.default_config with num_domains = domains }

  (* The sequential baseline over the same blocks, on the same substrate. *)
  let reference ~(genesis : Store.t) (blocks : txn array array) : reference =
    let c = Ch.create ~store:`Merkle ~executor:Ch.Sequential ~genesis () in
    let t0 = now () in
    let cs = Array.map (fun b -> Ch.execute_block c b) blocks in
    let ref_ns = now () - t0 in
    {
      roots = Array.map (fun (c : _ Ch.block_commit) -> c.state_root) cs;
      outputs = Array.map (fun (c : _ Ch.block_commit) -> c.outputs) cs;
      ref_ns;
    }

  (* Correctness gate: every handed-over block must have committed with the
     reference's state root and outputs. *)
  let check (blocks : txn array array)
      (got : (int64 * O.t Txn.output array) array) (r : reference) : outcome =
    let attempted = Array.fold_left (fun s b -> s + Array.length b) 0 blocks in
    let failed = ref 0 in
    Array.iteri
      (fun k b ->
        let ok =
          k < Array.length got
          && k < Array.length r.roots
          &&
          let root, outs = got.(k) in
          Int64.equal root r.roots.(k)
          && Array.length outs = Array.length r.outputs.(k)
          && Array.for_all2 (Txn.equal_output O.equal) outs r.outputs.(k)
        in
        if not ok then failed := !failed + Array.length b)
      blocks;
    { attempted; failed = !failed }

  (* ---------------------------------------------------------------------- *)
  (* Feeding blocks                                                          *)
  (* ---------------------------------------------------------------------- *)

  (* [feed ()] returns the next block and the due time (absolute ns) of each
     of its transactions, or [None] at the end; [depths] holds the mempool
     depth at each cut. In a closed loop a transaction is due when its block
     is handed over. *)
  let feeder (src : source) :
      (unit -> (txn array * int array) option) * Fbuf.t =
    let depths = Fbuf.create () in
    match src with
    | Closed blocks ->
        let i = ref 0 in
        ( (fun () ->
            if !i >= Array.length blocks then None
            else begin
              let b = blocks.(!i) in
              incr i;
              Fbuf.push depths 0.;
              Some (b, Array.make (Array.length b) (now ()))
            end),
          depths )
    | Open { txns; due; cap; deadline_ns } ->
        let n = Array.length txns in
        let mp = Mp.create ~capacity:(max 1 n) () in
        let origin = ref (-1) and submitted = ref 0 and cut = ref 0 in
        let rec wait () =
          let t = now () - !origin in
          while !submitted < n && due.(!submitted) <= t do
            if not (Mp.try_submit mp !submitted) then
              failwith "perfbench: mempool refused a transaction";
            incr submitted
          done;
          let depth = !submitted - !cut in
          if
            depth >= cap
            || depth > 0
               && (t - due.(!cut) >= deadline_ns || !submitted = n)
          then begin
            Fbuf.push depths (fi (Mp.depth mp));
            let b = Mp.next_block mp ~max_txns:cap ~deadline_ns:0 in
            cut := !cut + Array.length b;
            Some
              ( Array.map (fun i -> txns.(i)) b,
                Array.map (fun i -> !origin + due.(i)) b )
          end
          else begin
            Domain.cpu_relax ();
            wait ()
          end
        in
        ( (fun () ->
            if !origin < 0 then origin := now ();
            if !cut >= n then None else wait ()),
          depths )

  (* ---------------------------------------------------------------------- *)
  (* Untraced run: the chain's own stream loop                               *)
  (* ---------------------------------------------------------------------- *)

  type stream = {
    blocks : txn array array;  (** Handed over, in order. *)
    handover : int array;  (** Handover offsets (ns) from the first one. *)
    rooted : int array;  (** State-root offsets (ns) from the first handover. *)
    got : (int64 * O.t Txn.output array) array;  (** Commits, in order. *)
    lat_ms : float array;  (** Due time to state root, per transaction. *)
    busy_ns : int;  (** Sum of per-block handover-to-root times. *)
    ingest_ns : int;  (** Time the chain waited inside [next]. *)
    depths : float array;
    minor_words : float;
    promoted_words : float;
    major_collections : int;
  }

  let stream ~(chain : O.t Ch.t) (src : source) : stream =
    let feed, depths = feeder src in
    let blocks = ref [] and handover = ref [] in
    let dues = Queue.create () in
    let lat = Fbuf.create () in
    let t_first = ref (-1) and t_hand = ref 0 in
    let rooted = ref [] in
    let busy = ref 0 in
    let next () =
      match feed () with
      | None -> None
      | Some (b, d) ->
          let t = now () in
          if !t_first < 0 then t_first := t;
          t_hand := t;
          blocks := b :: !blocks;
          handover := (t - !t_first) :: !handover;
          Queue.push d dues;
          ignore (Atomic.fetch_and_add handed (Array.length b));
          Atomic.incr beats;
          Some b
    in
    let on_block (c : O.t Ch.block_commit) =
      ignore (Atomic.fetch_and_add committed c.txn_count);
      let t = now () in
      Array.iter (fun d -> Fbuf.push lat (fi (t - d) /. 1e6)) (Queue.pop dues);
      busy := !busy + (t - !t_hand);
      rooted := (t - !t_first) :: !rooted;
      Atomic.incr beats
    in
    let g0 = Gc.quick_stat () in
    let ingest_ns =
      match Ch.execute_stream chain ~next ~on_block with
      | _, stats -> stats.Ch.s_idle_ns
      | exception e ->
          Printf.eprintf "perfbench: stream raised %s\n%!"
            (Printexc.to_string e);
          0
    in
    let g1 = Gc.quick_stat () in
    {
      blocks = Array.of_list (List.rev !blocks);
      handover = Array.of_list (List.rev !handover);
      rooted = Array.of_list (List.rev !rooted);
      got =
        Array.of_list
          (List.map
             (fun (c : _ Ch.block_commit) -> (c.state_root, c.outputs))
             (Ch.commits chain));
      lat_ms = Fbuf.to_array lat;
      busy_ns = !busy;
      ingest_ns;
      depths = Fbuf.to_array depths;
      minor_words = g1.minor_words -. g0.minor_words;
      promoted_words = g1.promoted_words -. g0.promoted_words;
      major_collections = g1.major_collections - g0.major_collections;
    }

  (* End-to-end timings are taken over windows of consecutive committed
     blocks holding at least [window_txns] transactions: one block in a
     closed loop, about 0.2 s of arrivals in the open loop. Each window
     gives its committed throughput (its transactions over the time from
     its first handover to its last state root) and the median commit
     latency of its transactions. A run reports the median over the windows
     of its timed passes, so a disturbance of the host that covers fewer
     than half of them does not move the result. *)
  let window_txns = 1000

  let windows (s : stream) : (float * float) array =
    let acc = ref [] and lo = ref 0 and n = ref 0 and pos = ref 0 in
    Array.iteri
      (fun b root ->
        n := !n + Array.length s.blocks.(b);
        if !n >= window_txns then begin
          let secs = fi (max 1 (root - s.handover.(!lo))) /. 1e9 in
          acc := (fi !n /. secs, median (Array.sub s.lat_ms !pos !n)) :: !acc;
          pos := !pos + !n;
          lo := b + 1;
          n := 0
        end)
      s.rooted;
    Array.of_list (List.rev !acc)

  (* ---------------------------------------------------------------------- *)
  (* Traced run: the calls [Chain.execute_block] makes, in the same order    *)
  (* ---------------------------------------------------------------------- *)

  let wrap_reader (r : (L.t, V.t) Intf.storage) : (L.t, V.t) Intf.storage =
   fun l ->
    let a = Domain.DLS.get acc_key in
    let t0 = now () in
    let v = r l in
    bump a k_st_ns (now () - t0);
    bump a k_st_reads 1;
    v

  (* Wrap a transaction closure and its effects handle. A read that hits an
     ESTIMATE raises out of [e.read]; its time still counts. *)
  let wrap_txn (txn : txn) : txn =
   fun e ->
    let a = Domain.DLS.get acc_key in
    let read l =
      let s0 = a.(k_st_ns) and t0 = now () in
      let fin () =
        let d = now () - t0 in
        bump a k_eff d;
        bump a k_read_ns (d - (a.(k_st_ns) - s0));
        bump a k_reads 1
      in
      match e.Txn.read l with
      | v ->
          fin ();
          v
      | exception ex ->
          fin ();
          raise ex
    in
    let write l v =
      let t0 = now () in
      e.Txn.write l v;
      let d = now () - t0 in
      bump a k_eff d;
      bump a k_write_ns d;
      bump a k_writes 1
    in
    let delta l d =
      let s0 = a.(k_st_ns) and t0 = now () in
      let fin () =
        let dt = now () - t0 in
        bump a k_eff dt;
        bump a k_delta_ns (dt - (a.(k_st_ns) - s0));
        bump a k_deltas 1
      in
      match e.Txn.delta l d with
      | r ->
          fin ();
          r
      | exception ex ->
          fin ();
          raise ex
    in
    let e0 = a.(k_eff) and t0 = now () in
    let fin () = bump a k_body (now () - t0 - (a.(k_eff) - e0)) in
    match txn { Txn.read; write; delta } with
    | o ->
        fin ();
        o
    | exception ex ->
        fin ();
        raise ex

  type layers = {
    mutable blocks : int;
    mutable txns : int;
    mutable window_ns : int;  (** Engine run windows (trace clock). *)
    mutable fixed0_ns : int;  (** Calling domain, outside any step. *)
    mutable fixed_ns : int;  (** All domains, outside any step. *)
    mutable exec_ns : int;
    mutable val_ns : int;
    mutable idle_ns : int;
    mutable commit_ns : int;
    mutable claim_ns : int;
    mutable apply_ns : int;
    mutable root_ns : int;
    mutable digest_ns : int;
    mutable busy_ns : int;  (** Sum of per-block start-to-digest times. *)
    mutable incarnations : int;
    mutable validations : int;
    mutable val_aborts : int;
    mutable dep_aborts : int;
    mutable dropped : int;
    acc : int array;
  }

  (* Split each domain's share of an engine run window from its step-event
     ring: recorded steps by kind, the gaps between consecutive steps
     (scheduler claim), and the time before the first and after the last
     step (engine fixed cost). Gaps are not attributed when the ring
     dropped events, since they would hide lost steps. *)
  let attribute (ly : layers) tr ~domains ~window =
    let dropped = Trace.dropped tr in
    ly.dropped <- ly.dropped + dropped;
    for d = 0 to domains - 1 do
      match Trace.worker_events tr ~worker:d with
      | [] ->
          ly.fixed_ns <- ly.fixed_ns + window;
          if d = 0 then ly.fixed0_ns <- ly.fixed0_ns + window
      | first :: _ as evs ->
          let last_end = ref 0 and spans = ref 0 in
          List.iter
            (fun (ev : Trace.event) ->
              last_end := max !last_end (ev.start_ns + ev.dur_ns);
              spans := !spans + ev.dur_ns;
              match ev.payload with
              | Trace.Exec _ | Trace.Exec_blocked _ | Trace.Cold _ ->
                  ly.exec_ns <- ly.exec_ns + ev.dur_ns
              | Trace.Validation _ -> ly.val_ns <- ly.val_ns + ev.dur_ns
              | Trace.Idle _ -> ly.idle_ns <- ly.idle_ns + ev.dur_ns
              | Trace.Commit _ -> ly.commit_ns <- ly.commit_ns + ev.dur_ns)
            evs;
          let covered = !last_end - first.start_ns in
          if dropped = 0 then
            ly.claim_ns <- ly.claim_ns + max 0 (covered - !spans);
          let fixed = max 0 (window - covered) in
          ly.fixed_ns <- ly.fixed_ns + fixed;
          if d = 0 then ly.fixed0_ns <- ly.fixed0_ns + fixed
    done

  let traced ~domains ~(genesis : Store.t) (s : stream) :
      layers * (int64 * O.t Txn.output array) array =
    let m = Mstore.of_store genesis in
    let reader = wrap_reader (Mstore.reader m) in
    let config = { Bstm.default_config with num_domains = domains } in
    let ly =
      {
        blocks = 0;
        txns = 0;
        window_ns = 0;
        fixed0_ns = 0;
        fixed_ns = 0;
        exec_ns = 0;
        val_ns = 0;
        idle_ns = 0;
        commit_ns = 0;
        claim_ns = 0;
        apply_ns = 0;
        root_ns = 0;
        digest_ns = 0;
        busy_ns = 0;
        incarnations = 0;
        validations = 0;
        val_aborts = 0;
        dep_aborts = 0;
        dropped = 0;
        acc = fresh_acc ();
      }
    in
    harvest (fresh_acc ()) (* drop counts from before this run *);
    let got = ref [] in
    let origin = now () in
    (try
       Array.iteri
         (fun k txns ->
           (* Hand blocks over no earlier than the untraced run did, so an
              open loop sees the same arrivals. *)
           while now () - origin < s.handover.(k) do
             Domain.cpu_relax ()
           done;
           let n = Array.length txns in
           let wtx = Array.map wrap_txn txns in
           let tr =
             Trace.create ~capacity:((3 * n) + 256) ~num_workers:domains ()
           in
           let t_start = now () in
           let w0 = Trace.now_ns () in
           let r = Bstm.run ~config ~trace:tr ~storage:reader wtx in
           let w1 = Trace.now_ns () in
           let t1 = now () in
           Mstore.apply_delta m r.snapshot;
           let t2 = now () in
           let root = Mstore.root m in
           let t3 = now () in
           ignore (Ch.digest ~hash_loc:L.hash ~hash_value:V.hash r.snapshot);
           let t4 = now () in
           got := (root, r.outputs) :: !got;
           Atomic.incr beats;
           ly.busy_ns <- ly.busy_ns + (t4 - t_start);
           ly.apply_ns <- ly.apply_ns + (t2 - t1);
           ly.root_ns <- ly.root_ns + (t3 - t2);
           ly.digest_ns <- ly.digest_ns + (t4 - t3);
           ly.blocks <- ly.blocks + 1;
           ly.txns <- ly.txns + n;
           ly.window_ns <- ly.window_ns + (w1 - w0);
           let mt = r.metrics in
           ly.incarnations <- ly.incarnations + mt.incarnations;
           ly.validations <- ly.validations + mt.validations;
           ly.val_aborts <- ly.val_aborts + mt.validation_aborts;
           ly.dep_aborts <- ly.dep_aborts + mt.dependency_aborts;
           attribute ly tr ~domains ~window:(w1 - w0);
           harvest ly.acc)
         s.blocks
     with e ->
       Printf.eprintf "perfbench: traced run raised %s\n%!"
         (Printexc.to_string e));
    (ly, Array.of_list (List.rev !got))

  (* ---------------------------------------------------------------------- *)
  (* One invocation                                                          *)
  (* ---------------------------------------------------------------------- *)

  (* The reference inputs cut at the same block boundaries as [blocks]. *)
  let same_cuts (ref_inputs : inputs) (blocks : txn array array) =
    match ref_inputs.source with
    | Closed rb -> rb
    | Open { txns; _ } ->
        let pos = ref 0 in
        Array.map
          (fun b ->
            let x = Array.sub txns !pos (Array.length b) in
            pos := !pos + Array.length b;
            x)
          blocks

  let timed f =
    let t0 = now () in
    let r = f () in
    (r, fi (now () - t0))

  (* One pass: set up (generate the inputs and the genesis, build the
     sequential reference and the Merkle store of the chain under test),
     stream every block through the chain, and check each commit. An open
     loop's blocks are cut at run time, so its reference is built after the
     stream, over the same cuts, and its time still counts as set-up. *)
  let pass ~domains ~(gen : int -> inputs) ~seed ~ref_seed =
    Gc.full_major ();
    let (inp, ref_inputs), gen_ns =
      timed (fun () ->
          let inp = gen seed in
          (inp, if ref_seed = seed then inp else gen ref_seed))
    in
    Atomic.incr beats;
    (* Untimed collections here and before the stream: generators leave
       garbage behind, and every stream starts from the same heap state, so
       its timings and the peak resident set do not depend on how far the
       major GC happened to get. *)
    Gc.full_major ();
    let (pre_ref, chain), build_ns =
      timed (fun () ->
          let pre_ref =
            match inp.source with
            | Closed b ->
                Some
                  (reference ~genesis:ref_inputs.genesis
                     (same_cuts ref_inputs b))
            | Open _ -> None
          in
          let chain =
            Ch.create ~store:`Merkle ~executor:(executor domains)
              ~genesis:inp.genesis ()
          in
          (pre_ref, chain))
    in
    Atomic.incr beats;
    Gc.full_major ();
    let s = stream ~chain inp.source in
    let rss = peak_rss_mb () in
    let r, ref_ns =
      match pre_ref with
      | Some r -> (r, 0.)
      | None ->
          timed (fun () ->
              reference ~genesis:ref_inputs.genesis
                (same_cuts ref_inputs s.blocks))
    in
    (inp, s, r, check s.blocks s.got r, gen_ns +. build_ns +. ref_ns, rss)

  let min_passes = 4
  let calm_margin = 0.01

  let main ~domains ~trace ~seconds ~(gen : int -> inputs) ~seed ~ref_seed =
    start_watchdog ();
    if not trace then begin
      (* Passes over the same inputs, each set up afresh, until the next one
         would end past [seconds], but at least [min_passes]. Every pass is
         checked. The first warms the process up and is not timed. The
         timings come from the others, ranked by the share of CPU time the
         hypervisor stole during each: the calmest third, and every pass
         within [calm_margin] of the calmest. On a shared host that share
         moves between 0 and 33 % within minutes and slows both domains of a
         block at once, so it would otherwise decide the result; on a quiet
         host every pass counts. The peak resident set is read after the
         first pass's stream: set-up plus one run of the workload. Later
         passes repeat it for timing and would add only the allocator's
         fragmentation. *)
      let rss = ref 0. in
      let t0 = now () in
      let rec passes acc =
        let p0 = now () and c0 = cpu_ticks () in
        let _, s, _, o, setup_ns, r = pass ~domains ~gen ~seed ~ref_seed in
        if acc = [] then rss := r;
        let ws = windows s and steal = steal_share c0 (cpu_ticks ()) in
        let acc = (ws, o, setup_ns, steal) :: acc in
        let t = now () in
        Printf.eprintf
          "perfbench: pass %d: %.3f s, set-up %.3f s, tps %.0f, p50 %.3f ms, \
           steal %.3f\n\
           %!"
          (List.length acc)
          (fi (t - p0) /. 1e9)
          (setup_ns /. 1e9)
          (median (Array.map fst ws))
          (median (Array.map snd ws))
          steal;
        let next_end_s = fi (t - t0 + (t - p0)) /. 1e9 in
        if List.length acc >= min_passes && next_end_s > seconds then
          List.rev acc
        else passes acc
      in
      let runs = passes [] in
      let sum f = List.fold_left (fun a (_, o, _, _) -> a + f o) 0 runs in
      let o =
        {
          attempted = sum (fun o -> o.attempted);
          failed = sum (fun o -> o.failed);
        }
      in
      let timed =
        List.stable_sort
          (fun (_, _, _, a) (_, _, _, b) -> Float.compare a b)
          (List.tl runs)
      in
      let keep = (List.length timed + 2) / 3 in
      let least = match timed with (_, _, _, st) :: _ -> st | [] -> 0. in
      let calm =
        List.filteri
          (fun i (_, _, _, st) -> i < keep || st <= least +. calm_margin)
          timed
      in
      let ws = Array.concat (List.map (fun (w, _, _, _) -> w) calm) in
      let setups = Array.of_list (List.map (fun (_, _, t, _) -> t) calm) in
      print_result o
        [
          ("tps", median (Array.map fst ws), "1/s");
          ("commit_ms_p50", median (Array.map snd ws), "ms");
          ("ok_frac", 1. -. ratio (fi o.failed) (fi o.attempted), "frac");
          ("setup_s", median setups /. 1e9, "s");
          ("peak_rss_mb", !rss, "MiB");
        ]
    end
    else begin
      let inp, s, r, o, _, _ = pass ~domains ~gen ~seed ~ref_seed in
      let ly, tgot = traced ~domains ~genesis:inp.genesis s in
      let txns = fi o.attempted in
      let nblocks = fi (max 1 (Array.length s.blocks)) in
      let to_ = check s.blocks tgot r in
      let o =
        {
          attempted = o.attempted + to_.attempted;
          failed = o.failed + to_.failed;
        }
      in
      let a = ly.acc in
      let n = fi (max 1 ly.txns) and nb = fi (max 1 ly.blocks) in
      let dom = fi domains in
      let serial = ly.apply_ns + ly.root_ns + ly.digest_ns in
      (* Worker time is domains x traced wall time, the sum of each block's
         time from the engine call to the digest. Engine windows are split
         per domain from the step rings; the chain's serial phases hold
         every domain, so they are charged domains x their wall time. *)
      let attributed =
        fi
          (ly.exec_ns + ly.val_ns + ly.idle_ns + ly.commit_ns + ly.claim_ns
         + ly.fixed_ns)
        +. (dom *. fi serial)
      in
      let coverage = ratio attributed (dom *. fi ly.busy_ns) in
      let per_txn x = fi x /. n and per_block x = fi x /. nb in
      let per a k_ns k_count = ratio (fi a.(k_ns)) (fi a.(k_count)) in
      print_result o
        ([
          ("vm.body_us_per_txn", per_txn a.(k_body) /. 1e3, "us");
          ("mvmemory.read_ns", per a k_read_ns k_reads, "ns");
          ("mvmemory.write_ns", per a k_write_ns k_writes, "ns");
          ("mvmemory.delta_ns", per a k_delta_ns k_deltas, "ns");
          ("mvmemory.reads_per_txn", per_txn a.(k_reads), "count");
          (* Deltas are writes the engine may route as delta entries. *)
          ( "mvmemory.writes_per_txn",
            per_txn (a.(k_writes) + a.(k_deltas)),
            "count" );
          ("engine.run_ms_per_block", per_block ly.window_ns /. 1e6, "ms");
          ("engine.fixed_us_per_block", per_block ly.fixed0_ns /. 1e3, "us");
          ("engine.exec_us_per_txn", per_txn ly.exec_ns /. 1e3, "us");
          ("engine.validate_us_per_txn", per_txn ly.val_ns /. 1e3, "us");
          ("engine.incarnations_per_txn", per_txn ly.incarnations, "count");
          ("engine.useful_exec_ratio", ratio n (fi ly.incarnations), "frac");
          ("engine.validations_per_txn", per_txn ly.validations, "count");
          ("engine.validation_aborts_per_txn", per_txn ly.val_aborts, "count");
          ("engine.dependency_aborts_per_txn", per_txn ly.dep_aborts, "count");
          ("scheduler.claim_us_per_txn", per_txn ly.claim_ns /. 1e3, "us");
          ( "scheduler.idle_frac",
            ratio (fi ly.idle_ns) (dom *. fi ly.window_ns),
            "frac" );
          ("storage.read_ns", per a k_st_ns k_st_reads, "ns");
          ("storage.reads_per_txn", per_txn a.(k_st_reads), "count");
          ( "storage.apply_delta_ms_per_block",
            per_block ly.apply_ns /. 1e6,
            "ms" );
          ("storage.root_ms_per_block", per_block ly.root_ns /. 1e6, "ms");
          ("chain.digest_ms_per_block", per_block ly.digest_ns /. 1e6, "ms");
          ( "chain.ingest_wait_ms_per_block",
            fi s.ingest_ns /. nblocks /. 1e6,
            "ms" );
          (* The tail is reported here, ungated: under host CPU steal its
             run-to-run spread exceeds any end-to-end bound. *)
          ("chain.commit_ms_p99", quantile s.lat_ms 0.99, "ms");
          ("baselines.seq_tps", txns /. (fi r.ref_ns /. 1e9), "1/s");
          ("gc.minor_words_per_txn", s.minor_words /. txns, "words");
          ("gc.promoted_words_per_txn", s.promoted_words /. txns, "words");
          ( "gc.major_collections_per_block",
            fi s.major_collections /. nblocks,
            "count" );
          ( "trace.overhead_frac",
            ratio (fi ly.busy_ns) (fi s.busy_ns) -. 1.,
            "frac" );
          ("trace.coverage_frac", coverage, "frac");
          ("trace.dropped_events", fi ly.dropped, "count");
        ]
        @
        (* Block size and mempool depth vary only where the chain cuts the
           blocks itself. *)
        match inp.source with
        | Closed _ -> []
        | Open _ ->
            [
              ("chain.block_txns_mean", txns /. nblocks, "count");
              ("chain.mempool_depth_p95", quantile s.depths 0.95, "count");
            ]);
      if coverage < 0.9 then begin
        Printf.eprintf
          "perfbench: trace coverage %.3f is below 0.9: the traced run does \
           not account for its worker time\n%!"
          coverage;
        exit 3
      end
    end
end

(* ------------------------------------------------------------------------ *)
(* Workloads                                                                 *)
(* ------------------------------------------------------------------------ *)

(* One pass is about 2.5 s of work at today's speed on a 2-core host; the
   inputs depend only on the seed, never on how fast the program runs, so
   two commits are measured over identical blocks. *)
let mm_blocks = 100
let hot_blocks = 100
let block_txns = 1000
let accounts = 10_000

(* Open loop: arrivals at a constant rate well below the closed-loop
   capacity of the workload, cut at [big_cap] transactions or when the
   oldest due transaction has waited [big_deadline_ns]. At this rate a
   block of about 11 transactions executes in under half the deadline on a
   calm host, so the chain does not fall behind and queue. A pass streams
   for 4 s. *)
let big_accounts = 1_000_000
let big_txns = 20_000
let big_rate = 5_000.
let big_cap = 256
let big_deadline_ns = 2_000_000

module Mv = Blockstm_minimove.Mv_value
module W = Blockstm_workload

module Mm_run =
  Run (Mv.Loc) (Mv.Value)
    (struct
      type t = Mv.Value.t

      let equal = Mv.Value.equal
    end)

module Int_out = struct
  type t = int

  let equal = Int.equal
end

module Ledger_run = Run (W.Ledger.Loc) (W.Ledger.Value) (Int_out)

let slice (txns : 'a array) ~size =
  Array.init (Array.length txns / size) (fun k ->
      Array.sub txns (k * size) size)

let mm_coin seed : Mm_run.inputs =
  (* One long block keeps sender sequence numbers consistent across the
     slices. *)
  let w =
    W.Mm_p2p.generate
      {
        W.Mm_p2p.default_spec with
        num_accounts = accounts;
        block_size = mm_blocks * block_txns;
        seed;
      }
  in
  { genesis = w.storage; source = Closed (slice w.txns ~size:block_txns) }

let hotspot_pay seed : Ledger_run.inputs =
  let hs =
    W.P2p.generate_hotspot_stream
      {
        W.P2p.default_hotspot_spec with
        h_num_accounts = accounts;
        h_hot_accounts = 2;
        h_block_size = block_txns;
        h_seed = seed;
        h_work = 0;
      }
      ~nblocks:hot_blocks
  in
  {
    genesis = (List.hd hs).h_storage;
    source = Closed (Array.of_list (List.map (fun h -> h.W.P2p.h_txns) hs));
  }

let bigstate_poisson seed : Ledger_run.inputs =
  let g =
    W.Bigstate.transfers ~block_size:big_txns ~num_accounts:big_accounts ~seed
      ()
  in
  let rng = W.Rng.create (seed lxor 0x5eed) in
  let t = ref 0. in
  let due =
    Array.init big_txns (fun _ ->
        let u = 1. -. W.Rng.float rng in
        t := !t -. (Float.log u *. 1e9 /. big_rate);
        int_of_float !t)
  in
  {
    genesis = g.storage;
    source =
      Open { txns = g.txns; due; cap = big_cap; deadline_ns = big_deadline_ns };
  }

(* ------------------------------------------------------------------------ *)
(* Command line                                                              *)
(* ------------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and domains = ref 0 and ref_seed = ref (-1) in
  let nproc = ref 0 and git_rev = ref "unknown" in
  let src_digest = ref "unknown" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        " mm_coin | hotspot_pay | bigstate_poisson" );
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " nominal measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer");
      ( "--domains",
        Arg.Set_int domains,
        " engine domains (default: recommended count)" );
      ( "--reference-seed",
        Arg.Set_int ref_seed,
        " build the sequential reference from another seed (gate self-test)" );
      ("--nproc", Arg.Set_int nproc, " host cores, for the fingerprint");
      ("--git-rev", Arg.Set_string git_rev, " revision, for the fingerprint");
      ( "--source-digest",
        Arg.Set_string src_digest,
        " source hash, for the fingerprint" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !domains < 1 then domains := Domain.recommended_domain_count ();
  if !ref_seed < 0 then ref_seed := !seed;
  if !seconds < 1 then begin
    prerr_endline "perfbench: --seconds must be >= 1";
    exit 2
  end;
  Printf.printf
    "{\"host\": {\"nproc\": %d, \"recommended_domain_count\": %d, \"ocaml\": \
     %S, \"git_rev\": %S, \"source_digest\": %S, \"domains\": %d}, \
     \"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %d}\n%!"
    !nproc
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !git_rev !src_digest !domains !workload !seed !seconds
    !trace;
  let trace = !trace = 1 in
  let seconds = fi !seconds in
  match !workload with
  | "mm_coin" ->
      Mm_run.main ~domains:!domains ~trace ~seconds ~gen:mm_coin ~seed:!seed
        ~ref_seed:!ref_seed
  | "hotspot_pay" ->
      Ledger_run.main ~domains:!domains ~trace ~seconds ~gen:hotspot_pay
        ~seed:!seed ~ref_seed:!ref_seed
  | "bigstate_poisson" ->
      Ledger_run.main ~domains:!domains ~trace ~seconds ~gen:bigstate_poisson
        ~seed:!seed ~ref_seed:!ref_seed
  | w ->
      Printf.eprintf "perfbench: unknown workload %S\n%!" w;
      exit 2
