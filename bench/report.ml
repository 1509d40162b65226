(** Machine-readable bench output: accumulates every table the experiments
    print (plus raw per-seed samples) and renders them as one JSON document.

    The harness stays printf-first — experiments call {!emit_table} where
    they used to call [Table.print] and the console output is unchanged;
    when [--json] is given the same rows also land in the report. State is
    global and single-threaded, like the harness itself. *)

module J = Blockstm_obs.Json
module T = Blockstm_stats.Table
module D = Blockstm_stats.Descriptive

type hist = {
  h_summary : D.summary;
  h_buckets : (float * int) list;
      (* (upper bound, count), ascending: bucket [le] counts samples in
         (le/2, le]; le = 0 collects non-positive samples. *)
}

type experiment = {
  e_name : string;
  e_descr : string;
  mutable e_tables : T.t list;  (* reverse order *)
  mutable e_samples : (string * float list ref) list;  (* reverse order *)
  mutable e_hists : (string * hist) list;  (* reverse order *)
}

let experiments : experiment list ref = ref [] (* reverse order *)
let current : experiment option ref = ref None
let mode_name = ref "quick"
let quiet = ref false

let reset () =
  experiments := [];
  current := None;
  mode_name := "quick"

let set_quiet b = quiet := b
let set_mode m = mode_name := m

let begin_experiment ~name ~descr =
  let e =
    {
      e_name = name;
      e_descr = descr;
      e_tables = [];
      e_samples = [];
      e_hists = [];
    }
  in
  experiments := e :: !experiments;
  current := Some e

let emit_table (t : T.t) =
  if not !quiet then T.print t;
  match !current with
  | None -> ()
  | Some e -> e.e_tables <- t :: e.e_tables

let sample ~label v =
  match !current with
  | None -> ()
  | Some e -> (
      match List.assoc_opt label e.e_samples with
      | Some r -> r := v :: !r
      | None -> e.e_samples <- (label, ref [ v ]) :: e.e_samples)

(* Power-of-two bucket upper bound: the smallest 2^k >= v (0 for v <= 0). *)
let bucket_le v =
  if v <= 0. then 0.
  else
    let le = Float.pow 2. (Float.ceil (Float.log2 v)) in
    if le < v then le *. 2. else le

let histogram ~label (xs : float array) =
  match !current with
  | None -> ()
  | Some e ->
      if Array.length xs > 0 then begin
        let tbl = Hashtbl.create 48 in
        Array.iter
          (fun v ->
            let le = bucket_le v in
            Hashtbl.replace tbl le (1 + Option.value ~default:0 (Hashtbl.find_opt tbl le)))
          xs;
        let buckets =
          List.sort
            (fun (a, _) (b, _) -> Float.compare a b)
            (Hashtbl.fold (fun le n acc -> (le, n) :: acc) tbl [])
        in
        let h = { h_summary = D.summarize xs; h_buckets = buckets } in
        e.e_hists <- (label, h) :: e.e_hists
      end

(* Cells that parse as finite numbers become JSON numbers; formatted cells
   ("1.5x", "50%", "inf", labels) stay strings. *)
let cell_json s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f -> J.Num f
  | _ -> J.Str s

let table_json (t : T.t) : J.t =
  J.Obj
    [
      ("title", J.Str t.T.title);
      ("header", J.List (List.map (fun h -> J.Str h) t.T.header));
      ( "rows",
        J.List
          (List.rev_map
             (fun row -> J.List (List.map cell_json row))
             t.T.rows) );
    ]

let summary_json (s : D.summary) : J.t =
  J.Obj
    [
      ("n", J.Num (float_of_int s.D.n));
      ("mean", J.Num s.D.mean);
      ("stddev", J.Num s.D.stddev);
      ("min", J.Num s.D.min);
      ("p50", J.Num s.D.median);
      ("p95", J.Num s.D.p95);
      ("p99", J.Num s.D.p99);
      ("max", J.Num s.D.max);
    ]

let samples_json (e : experiment) : J.t =
  J.Obj
    (List.rev_map
       (fun (label, r) ->
         let xs = Array.of_list (List.rev !r) in
         ( label,
           J.Obj
             [
               ("samples", J.List (Array.to_list (Array.map (fun v -> J.Num v) xs)));
               ("summary", summary_json (D.summarize xs));
             ] ))
       e.e_samples)

let hist_json (h : hist) : J.t =
  J.Obj
    [
      ("summary", summary_json h.h_summary);
      ( "buckets",
        J.List
          (List.map
             (fun (le, n) ->
               J.Obj [ ("le", J.Num le); ("count", J.Num (float_of_int n)) ])
             h.h_buckets) );
    ]

let hists_json (e : experiment) : J.t =
  J.Obj (List.rev_map (fun (label, h) -> (label, hist_json h)) e.e_hists)

let experiment_json (e : experiment) : J.t =
  J.Obj
    [
      ("name", J.Str e.e_name);
      ("description", J.Str e.e_descr);
      ("tables", J.List (List.rev_map table_json e.e_tables));
      ("samples", samples_json e);
      ("histograms", hists_json e);
    ]

let to_json () : J.t =
  J.Obj
    [
      ("schema", J.Str "blockstm-bench/11");
      ("mode", J.Str !mode_name);
      ("experiments", J.List (List.rev_map experiment_json !experiments));
    ]

let write path =
  J.write_file path (to_json ());
  if not !quiet then Fmt.pr "@.wrote %s@." path
