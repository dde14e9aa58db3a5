(* Span-stream aggregation: fold the flat Obs event stream into a
   per-label-path call tree (count, total, child-exclusive self,
   log-bucketed duration quantiles, GC attribution) plus a per-domain
   busy/idle utilization table derived from pool.task spans.

   Nesting is rebuilt per domain track with the same stack algorithm
   Trace_check uses: events sorted by (dom, ts, -dur) put parents before
   their children, so a span's parent is the innermost span still open
   at its start.  Aggregation is keyed by the full label *path*, which
   keeps "pool.task under statlib.build" separate from "pool.task under
   sweep.run" in the tree while the flat table merges them by label. *)

(* A span end is ts + dur in float microseconds, so a child's end can
   pass its parent's by rounding; traces written before floats were
   exported bit-exact also sit on a %.3f-µs grid.  Same tolerance as
   Trace_check. *)
let eps = 0.002

type gc = Obs.gc_delta = {
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_add a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    major_words = a.major_words +. b.major_words;
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections;
  }

type node = {
  label : string;
  path : string list;
  count : int;
  total_us : float;
  self_us : float;
  min_us : float;
  max_us : float;
  buckets : int array;
  gc : gc;
  children : node list;
}

type row = {
  r_label : string;
  r_count : int;
  r_total_us : float;
  r_self_us : float;
  r_min_us : float;
  r_max_us : float;
  r_buckets : int array;
  r_gc : gc;
}

type domain_util = { dom : int; spans : int; tasks : int; busy_us : float; util : float }

type t = {
  span_count : int;
  wall_us : float;
  roots : node list;
  rows : row list;
  domains : domain_util list;
}

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

type acc = {
  mutable a_count : int;
  mutable a_total : float;
  mutable a_child : float;  (* total time of direct children *)
  mutable a_min : float;
  mutable a_max : float;
  a_buckets : int array;
  mutable a_gc : gc;
}

let fresh_acc () =
  {
    a_count = 0;
    a_total = 0.0;
    a_child = 0.0;
    a_min = Float.infinity;
    a_max = Float.neg_infinity;
    a_buckets = Array.make Obs.Buckets.count 0;
    a_gc = Obs.gc_zero;
  }

let key_of_path path = String.concat "\x1f" path

let of_events evs =
  (* dom asc, then start asc, then duration desc (parents before their
     children at equal start) — explicit Int/Float comparisons, not a
     polymorphic tuple compare that would box every float. *)
  let evs =
    List.sort
      (fun (a : Obs.event) (b : Obs.event) ->
        let c = Int.compare a.dom b.dom in
        if c <> 0 then c
        else
          let c = Float.compare a.ts_us b.ts_us in
          if c <> 0 then c else Float.compare b.dur_us a.dur_us)
      evs
  in
  let table : (string, string list * acc) Hashtbl.t = Hashtbl.create 64 in
  let acc_for path =
    let key = key_of_path path in
    match Hashtbl.find_opt table key with
    | Some (_, a) -> a
    | None ->
      let a = fresh_acc () in
      Hashtbl.replace table key (path, a);
      a
  in
  let doms : (int, int * int * float) Hashtbl.t = Hashtbl.create 8 in
  let wall_lo = ref Float.infinity and wall_hi = ref Float.neg_infinity in
  let span_count = ref 0 in
  (* stack frames: (path, end time) for the open ancestors of the
     current event within one domain track *)
  let stack = ref [] in
  let current_dom = ref min_int in
  List.iter
    (fun (e : Obs.event) ->
      incr span_count;
      if e.Obs.dom <> !current_dom then begin
        current_dom := e.Obs.dom;
        stack := []
      end;
      let fin = e.Obs.ts_us +. e.Obs.dur_us in
      wall_lo := Float.min !wall_lo e.Obs.ts_us;
      wall_hi := Float.max !wall_hi fin;
      stack := List.filter (fun (_, open_end) -> open_end > e.Obs.ts_us +. eps) !stack;
      let parent_path = match !stack with [] -> [] | (p, _) :: _ -> p in
      (match !stack with
      | (p, _) :: _ -> (acc_for p).a_child <- (acc_for p).a_child +. e.Obs.dur_us
      | [] -> ());
      let path = parent_path @ [ e.Obs.name ] in
      let a = acc_for path in
      a.a_count <- a.a_count + 1;
      a.a_total <- a.a_total +. e.Obs.dur_us;
      a.a_min <- Float.min a.a_min e.Obs.dur_us;
      a.a_max <- Float.max a.a_max e.Obs.dur_us;
      let bi = Obs.Buckets.index e.Obs.dur_us in
      a.a_buckets.(bi) <- a.a_buckets.(bi) + 1;
      a.a_gc <- gc_add a.a_gc e.Obs.gc;
      stack := (path, fin) :: !stack;
      let spans, tasks, busy =
        Option.value (Hashtbl.find_opt doms e.Obs.dom) ~default:(0, 0, 0.0)
      in
      let tasks, busy =
        if e.Obs.name = "pool.task" then (tasks + 1, busy +. e.Obs.dur_us) else (tasks, busy)
      in
      Hashtbl.replace doms e.Obs.dom (spans + 1, tasks, busy))
    evs;
  let wall_us = if !span_count = 0 then 0.0 else !wall_hi -. !wall_lo in
  (* tree: children of a path are exactly the table keys one level
     deeper with that path as prefix *)
  let entries = Hashtbl.fold (fun _ pa acc -> pa :: acc) table [] in
  let rec build_node (path, (a : acc)) =
    let children =
      List.filter_map
        (fun (p, a') ->
          if List.length p = List.length path + 1
             && List.for_all2 String.equal path (List.filteri (fun i _ -> i < List.length path) p)
          then Some (build_node (p, a'))
          else None)
        entries
    in
    let children = List.sort (fun x y -> Float.compare y.total_us x.total_us) children in
    {
      label = List.nth path (List.length path - 1);
      path;
      count = a.a_count;
      total_us = a.a_total;
      self_us = Float.max 0.0 (a.a_total -. a.a_child);
      min_us = a.a_min;
      max_us = a.a_max;
      buckets = a.a_buckets;
      gc = a.a_gc;
      children;
    }
  in
  let roots =
    entries
    |> List.filter (fun (p, _) -> List.length p = 1)
    |> List.map build_node
    |> List.sort (fun x y -> Float.compare y.total_us x.total_us)
  in
  (* flat rows: merge by label across every path *)
  let flat : (string, acc) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (path, (a : acc)) ->
      let label = List.nth path (List.length path - 1) in
      let f =
        match Hashtbl.find_opt flat label with
        | Some f -> f
        | None ->
          let f = fresh_acc () in
          Hashtbl.replace flat label f;
          f
      in
      f.a_count <- f.a_count + a.a_count;
      f.a_total <- f.a_total +. a.a_total;
      f.a_child <- f.a_child +. a.a_child;
      f.a_min <- Float.min f.a_min a.a_min;
      f.a_max <- Float.max f.a_max a.a_max;
      Array.iteri (fun i c -> f.a_buckets.(i) <- f.a_buckets.(i) + c) a.a_buckets;
      f.a_gc <- gc_add f.a_gc a.a_gc)
    entries;
  let rows =
    Hashtbl.fold
      (fun label (a : acc) acc ->
        {
          r_label = label;
          r_count = a.a_count;
          r_total_us = a.a_total;
          r_self_us = Float.max 0.0 (a.a_total -. a.a_child);
          r_min_us = a.a_min;
          r_max_us = a.a_max;
          r_buckets = a.a_buckets;
          r_gc = a.a_gc;
        }
        :: acc)
      flat []
    |> List.sort (fun x y ->
           let c = Float.compare y.r_self_us x.r_self_us in
           if c <> 0 then c else compare x.r_label y.r_label)
  in
  let domains =
    Hashtbl.fold
      (fun dom (spans, tasks, busy) acc ->
        {
          dom;
          spans;
          tasks;
          busy_us = busy;
          util = (if wall_us > 0.0 then busy /. wall_us else 0.0);
        }
        :: acc)
      doms []
    |> List.sort (fun a b -> compare a.dom b.dom)
  in
  { span_count = !span_count; wall_us; roots; rows; domains }

(* ------------------------------------------------------------------ *)
(* Trace-file input                                                    *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* Inverse of Obs.trace_json for the fields the profile uses: "X"
   events back into Obs.event records.  Unknown args stay as string
   attrs; gc_* args and wall_start_ns are recognised. *)
let events_of_trace json =
  match Json.member "traceEvents" json with
  | None -> Error "root object has no traceEvents"
  | Some evs -> (
    match Json.to_list evs with
    | None -> Error "traceEvents is not an array"
    | Some evs ->
      let parse_event ev =
        let str key = Option.bind (Json.member key ev) Json.to_string_opt in
        let num key = Option.bind (Json.member key ev) Json.to_float in
        match str "ph" with
        | Some "X" -> (
          match (str "name", num "tid", num "ts", num "dur") with
          | Some name, Some tid, Some ts, Some dur ->
            let args = Option.value (Json.member "args" ev) ~default:(Json.Object []) in
            let anum key = Option.bind (Json.member key args) Json.to_float in
            let gc =
              {
                minor_words = Option.value (anum "gc_minor_words") ~default:0.0;
                major_words = Option.value (anum "gc_major_words") ~default:0.0;
                minor_collections =
                  int_of_float (Option.value (anum "gc_minor_collections") ~default:0.0);
                major_collections =
                  int_of_float (Option.value (anum "gc_major_collections") ~default:0.0);
              }
            in
            let wall =
              match Option.bind (Json.member "wall_start_ns" args) Json.to_string_opt with
              | Some s -> Option.value (Int64.of_string_opt s) ~default:0L
              | None -> 0L
            in
            let attrs =
              match args with
              | Json.Object kvs ->
                List.filter_map
                  (fun (k, v) ->
                    match v with
                    | Json.String s when k <> "wall_start_ns" -> Some (k, s)
                    | _ -> None)
                  kvs
              | _ -> []
            in
            Ok
              (Some
                 {
                   Obs.name;
                   dom = int_of_float tid;
                   ts_us = ts;
                   dur_us = dur;
                   wall_start_ns = wall;
                   gc;
                   attrs;
                 })
          | _ -> Error "X event missing name/tid/ts/dur")
        | Some _ -> Ok None
        | None -> Error "event missing ph"
      in
      let* evs =
        List.fold_left
          (fun acc ev ->
            let* parsed = acc in
            let* one = parse_event ev in
            Ok (match one with Some e -> e :: parsed | None -> parsed))
          (Ok []) evs
      in
      Ok (List.rev evs))

let of_json json =
  let* evs = events_of_trace json in
  if evs = [] then Error "trace contains no complete (X) span events"
  else Ok (of_events evs)

let of_trace_string s =
  let* json = Json.parse s in
  of_json json

let of_trace_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_trace_string s

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let q_of_row r q =
  Obs.Buckets.quantile ~counts:r.r_buckets ~total:r.r_count ~min_v:r.r_min_us
    ~max_v:r.r_max_us q

let s_of_us us = us /. 1e6

let to_text t =
  let buf = Buffer.create 2048 in
  let self_sum = List.fold_left (fun acc r -> acc +. r.r_self_us) 0.0 t.rows in
  Buffer.add_string buf
    (Printf.sprintf "span profile: %d spans, wall %.3f s, accounted self %.3f s\n"
       t.span_count (s_of_us t.wall_us) (s_of_us self_sum));
  Buffer.add_string buf
    (Printf.sprintf "%10s %10s %6s %8s %12s %12s %12s %14s  %s\n" "total s" "self s" "self%"
       "calls" "p50 us" "p90 us" "p99 us" "minor w/call" "label");
  List.iter
    (fun r ->
      let pct = if self_sum > 0.0 then 100.0 *. r.r_self_us /. self_sum else 0.0 in
      Buffer.add_string buf
        (Printf.sprintf "%10.3f %10.3f %5.1f%% %8d %12.1f %12.1f %12.1f %14.0f  %s\n"
           (s_of_us r.r_total_us) (s_of_us r.r_self_us) pct r.r_count (q_of_row r 0.5)
           (q_of_row r 0.9) (q_of_row r 0.99)
           (r.r_gc.minor_words /. float_of_int (max 1 r.r_count))
           r.r_label))
    t.rows;
  Buffer.add_string buf "\nspan tree (total s / self s / calls):\n";
  let rec tree depth n =
    Buffer.add_string buf
      (Printf.sprintf "%s%-*s %9.3f %9.3f %7d\n"
         (String.make (2 * depth) ' ')
         (max 1 (40 - (2 * depth)))
         n.label (s_of_us n.total_us) (s_of_us n.self_us) n.count);
    List.iter (tree (depth + 1)) n.children
  in
  List.iter (tree 1) t.roots;
  Buffer.add_string buf "\ndomain utilization (pool.task busy / trace wall):\n";
  Buffer.add_string buf
    (Printf.sprintf "  %6s %8s %8s %10s %7s\n" "domain" "spans" "tasks" "busy s" "util");
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "  %6d %8d %8d %10.3f %6.1f%%\n" d.dom d.spans d.tasks
           (s_of_us d.busy_us) (100.0 *. d.util)))
    t.domains;
  let gc_rows =
    List.filter (fun r -> r.r_gc.minor_words > 0.0 || r.r_gc.major_words > 0.0) t.rows
    |> List.sort (fun a b -> Float.compare b.r_gc.minor_words a.r_gc.minor_words)
  in
  if gc_rows <> [] then begin
    Buffer.add_string buf "\nGC attribution (per span, children included):\n";
    Buffer.add_string buf
      (Printf.sprintf "  %14s %14s %8s %8s %8s  %s\n" "minor words" "major words" "min gc"
         "maj gc" "calls" "label");
    List.iter
      (fun r ->
        Buffer.add_string buf
          (Printf.sprintf "  %14.0f %14.0f %8d %8d %8d  %s\n" r.r_gc.minor_words
             r.r_gc.major_words r.r_gc.minor_collections r.r_gc.major_collections r.r_count
             r.r_label))
      gc_rows
  end;
  Buffer.contents buf

let to_json t =
  let row r =
    Json.Object
      [
        ("label", Json.String r.r_label);
        ("count", Json.int r.r_count);
        ("total_us", Json.Number r.r_total_us);
        ("self_us", Json.Number r.r_self_us);
        ("p50_us", Json.Number (q_of_row r 0.5));
        ("p90_us", Json.Number (q_of_row r 0.9));
        ("p99_us", Json.Number (q_of_row r 0.99));
        ("gc_minor_words", Json.Number r.r_gc.minor_words);
        ("gc_major_words", Json.Number r.r_gc.major_words);
        ("gc_minor_collections", Json.int r.r_gc.minor_collections);
        ("gc_major_collections", Json.int r.r_gc.major_collections);
      ]
  in
  let rec tree n =
    Json.Object
      [
        ("label", Json.String n.label);
        ("count", Json.int n.count);
        ("total_us", Json.Number n.total_us);
        ("self_us", Json.Number n.self_us);
        ("children", Json.Array (List.map tree n.children));
      ]
  in
  let domain d =
    Json.Object
      [
        ("domain", Json.int d.dom);
        ("spans", Json.int d.spans);
        ("tasks", Json.int d.tasks);
        ("busy_us", Json.Number d.busy_us);
        ("util", Json.Number d.util);
      ]
  in
  Json.Object
    [
      ("spans", Json.int t.span_count);
      ("wall_us", Json.Number t.wall_us);
      ("rows", Json.Array (List.map row t.rows));
      ("tree", Json.Array (List.map tree t.roots));
      ("domains", Json.Array (List.map domain t.domains));
    ]
