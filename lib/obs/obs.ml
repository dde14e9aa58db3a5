external now_ns : unit -> int64 = "vartune_obs_monotonic_ns"
external wall_ns : unit -> int64 = "vartune_obs_realtime_ns"

(* ------------------------------------------------------------------ *)
(* Recording state                                                     *)
(* ------------------------------------------------------------------ *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* GC work attributed to one span: Gc.quick_stat deltas between span
   entry and exit.  In OCaml 5 the word counters are domain-local and a
   span runs entirely on its recording domain, so the delta measures the
   span's own allocation plus whatever its callees allocated — exactly
   the attribution the flattening work needs.  Nested spans double-count
   by design (a parent's delta includes its children), mirroring how
   total time works; Profile reports child-exclusive self numbers. *)
type gc_delta = {
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_zero =
  { minor_words = 0.0; major_words = 0.0; minor_collections = 0; major_collections = 0 }

type event = {
  name : string;
  dom : int;
  ts_us : float;
  dur_us : float;
  wall_start_ns : int64;
  gc : gc_delta;
  attrs : (string * string) list;
}

(* One global event sink.  Span events are recorded once per span (at
   exit), so contention on this mutex is bounded by span frequency —
   coarse stage/chunk granularity by design, never per inner iteration. *)
let state_lock = Mutex.create ()
let recorded : event list ref = ref []
let origin_ns = ref (now_ns ())

let to_us t0 t = Int64.to_float (Int64.sub t t0) /. 1_000.0

let record ev =
  Mutex.lock state_lock;
  recorded := ev :: !recorded;
  Mutex.unlock state_lock

let span ?attrs name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = now_ns () in
    let w0 = wall_ns () in
    (* [quick_stat]'s minor_words only advances at minor collections on
       OCaml 5, so a short span would read 0; [Gc.minor_words] reads the
       allocation pointer and is precise (and cheaper). *)
    let m0 = Gc.minor_words () in
    let g0 = Gc.quick_stat () in
    Fun.protect f ~finally:(fun () ->
        let t1 = now_ns () in
        let m1 = Gc.minor_words () in
        let g1 = Gc.quick_stat () in
        (* origin_ns only moves on [reset]; a plain read is safe. *)
        let origin = !origin_ns in
        record
          {
            name;
            dom = (Domain.self () :> int);
            ts_us = to_us origin t0;
            dur_us = to_us t0 t1;
            wall_start_ns = w0;
            gc =
              {
                minor_words = m1 -. m0;
                major_words = g1.Gc.major_words -. g0.Gc.major_words;
                minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
                major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
              };
            attrs = (match attrs with None -> [] | Some g -> g ());
          })
  end

(* Sort key: per-domain tracks, monotone start times, and at equal start
   the longer (enclosing) span first so stack-based nesting checks and
   trace viewers see parents before children. *)
let event_order a b =
  let c = compare a.dom b.dom in
  if c <> 0 then c
  else
    let c = compare a.ts_us b.ts_us in
    if c <> 0 then c else compare b.dur_us a.dur_us

let events () =
  Mutex.lock state_lock;
  let evs = !recorded in
  Mutex.unlock state_lock;
  List.sort event_order evs

(* ------------------------------------------------------------------ *)
(* Counters (lock-free handles)                                        *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  type t = { cname : string; cell : int Atomic.t }

  let registry_lock = Mutex.create ()
  let registry : (string, t) Hashtbl.t = Hashtbl.create 32

  let make name =
    Mutex.protect registry_lock (fun () ->
        match Hashtbl.find_opt registry name with
        | Some c -> c
        | None ->
          let c = { cname = name; cell = Atomic.make 0 } in
          Hashtbl.replace registry name c;
          c)

  let add c n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.cell n)
  let incr c = add c 1
  let value c = Atomic.get c.cell

  let snapshot () =
    Mutex.protect registry_lock (fun () ->
        Hashtbl.fold (fun name c acc -> (name, Atomic.get c.cell) :: acc) registry [])

  let reset () =
    Mutex.protect registry_lock (fun () ->
        Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) registry)
end

let counter_value name =
  Mutex.protect Counter.registry_lock (fun () ->
      match Hashtbl.find_opt Counter.registry name with
      | Some c -> Atomic.get c.cell
      | None -> 0)

(* ------------------------------------------------------------------ *)
(* Gauges and histograms (mutex registry, cold paths)                  *)
(* ------------------------------------------------------------------ *)

(* Power-of-two log buckets shared by the metrics histograms and the
   profile's per-label duration histograms.  Bucket 0 catches
   non-positive values, the last bucket is the overflow; in between,
   bucket [i] covers [2^(i-offset-1), 2^(i-offset)).  With 64 buckets
   and offset 33 the covered range is [2^-33, 2^30) — nine decades each
   side of 1.0, enough for nanosecond-scale seconds and gigaword
   allocation counts alike. *)
module Buckets = struct
  let count = 64
  let offset = 33

  let index v =
    if not (v > 0.0) then 0
    else
      let raw = int_of_float (Float.floor (Float.log2 v)) + offset + 1 in
      if raw < 1 then 1 else if raw > count - 1 then count - 1 else raw

  (* Exclusive upper edge of bucket [i]; +infinity for the overflow. *)
  let upper i = if i >= count - 1 then Float.infinity else 2.0 ** float_of_int (i - offset)

  (* Deterministic quantile estimate: walk the cumulative counts to the
     target rank, interpolate linearly inside the bucket, and clamp to
     the observed [min_v, max_v] so degenerate histograms (n = 1, or
     every value in one bucket) answer exactly. *)
  let quantile ~counts ~total ~min_v ~max_v q =
    if total <= 0 then 0.0
    else begin
      let rank = q *. float_of_int total in
      let result = ref max_v in
      (try
         let cum = ref 0 in
         for i = 0 to Array.length counts - 1 do
           let c = counts.(i) in
           if c > 0 then begin
             let cum' = !cum + c in
             if float_of_int cum' >= rank then begin
               let lo = if i = 0 then 0.0 else 2.0 ** float_of_int (i - 1 - offset) in
               let hi = if Float.is_finite (upper i) then upper i else max_v in
               let frac = (rank -. float_of_int !cum) /. float_of_int c in
               result := lo +. ((hi -. lo) *. frac);
               raise Exit
             end;
             cum := cum'
           end
         done
       with Exit -> ());
      Float.max min_v (Float.min max_v !result)
    end
end

type histogram_stats = {
  count : int;
  sum : float;
  min_v : float;
  max_v : float;
  buckets : int array;  (** log-bucketed counts, [Buckets.count] wide *)
}

let histogram_quantile s q =
  Buckets.quantile ~counts:s.buckets ~total:s.count ~min_v:s.min_v ~max_v:s.max_v q

type mutable_metric =
  | Mgauge of { mutable v : float }
  | Mhisto of {
      mutable count : int;
      mutable sum : float;
      mutable min_v : float;
      mutable max_v : float;
      hbuckets : int array;
    }

type metric_value = Count of int | Value of float | Stats of histogram_stats

let metrics_lock = Mutex.create ()
let metrics_tbl : (string, mutable_metric) Hashtbl.t = Hashtbl.create 32

let gauge name v =
  if Atomic.get enabled_flag then
    Mutex.protect metrics_lock (fun () ->
        match Hashtbl.find_opt metrics_tbl name with
        | Some (Mgauge g) -> g.v <- v
        | Some (Mhisto _) -> invalid_arg ("Obs.gauge: " ^ name ^ " is a histogram")
        | None -> Hashtbl.replace metrics_tbl name (Mgauge { v }))

let observe name v =
  if Atomic.get enabled_flag then
    Mutex.protect metrics_lock (fun () ->
        match Hashtbl.find_opt metrics_tbl name with
        | Some (Mhisto h) ->
          h.count <- h.count + 1;
          h.sum <- h.sum +. v;
          h.min_v <- Float.min h.min_v v;
          h.max_v <- Float.max h.max_v v;
          let i = Buckets.index v in
          h.hbuckets.(i) <- h.hbuckets.(i) + 1
        | Some (Mgauge _) -> invalid_arg ("Obs.observe: " ^ name ^ " is a gauge")
        | None ->
          let hbuckets = Array.make Buckets.count 0 in
          hbuckets.(Buckets.index v) <- 1;
          Hashtbl.replace metrics_tbl name
            (Mhisto { count = 1; sum = v; min_v = v; max_v = v; hbuckets }))

let metrics () =
  let counters = List.map (fun (n, v) -> (n, Count v)) (Counter.snapshot ()) in
  let others =
    Mutex.protect metrics_lock (fun () ->
        Hashtbl.fold
          (fun name m acc ->
            let v =
              match m with
              | Mgauge g -> Value g.v
              | Mhisto h ->
                Stats
                  {
                    count = h.count;
                    sum = h.sum;
                    min_v = h.min_v;
                    max_v = h.max_v;
                    buckets = Array.copy h.hbuckets;
                  }
            in
            (name, v) :: acc)
          metrics_tbl [])
  in
  List.sort (fun (a, _) (b, _) -> compare a b) (counters @ others)

let reset () =
  Mutex.protect state_lock (fun () ->
      recorded := [];
      origin_ns := now_ns ());
  Counter.reset ();
  Mutex.protect metrics_lock (fun () -> Hashtbl.reset metrics_tbl)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

(* JSON has no 64-bit integers; wall-clock ns go out as strings. *)
let event_json e =
  Json.Object
    [
      ("ph", Json.String "X");
      ("pid", Json.int 1);
      ("tid", Json.int e.dom);
      ("name", Json.String e.name);
      ("cat", Json.String "vartune");
      ("ts", Json.Number e.ts_us);
      ("dur", Json.Number e.dur_us);
      ( "args",
        Json.Object
          ([
             ("wall_start_ns", Json.String (Int64.to_string e.wall_start_ns));
             ("gc_minor_words", Json.Number e.gc.minor_words);
             ("gc_major_words", Json.Number e.gc.major_words);
             ("gc_minor_collections", Json.int e.gc.minor_collections);
             ("gc_major_collections", Json.int e.gc.major_collections);
           ]
          @ List.map (fun (k, v) -> (k, Json.String v)) e.attrs) );
    ]

let thread_name_json dom =
  Json.Object
    [
      ("ph", Json.String "M");
      ("pid", Json.int 1);
      ("tid", Json.int dom);
      ("name", Json.String "thread_name");
      ("args", Json.Object [ ("name", Json.String (Printf.sprintf "domain-%d" dom)) ]);
    ]

(* Written one event at a time, so a long trace never exists as one
   [Json.t] tree. *)
let trace_json () =
  let evs = events () in
  let doms = List.sort_uniq compare (List.map (fun e -> e.dom) evs) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf {|{"displayTimeUnit":"ms","traceEvents":[|};
  let first = ref true in
  let add j =
    if !first then first := false else Buffer.add_char buf ',';
    Json.add buf j
  in
  List.iter (fun dom -> add (thread_name_json dom)) doms;
  List.iter (fun e -> add (event_json e)) evs;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let metrics_schema_version = 1

let histogram_json s =
  (* non-empty buckets as [upper_edge, count] pairs; the overflow
     bucket's infinite edge is reported as the observed max *)
  let buckets =
    Array.to_seqi s.buckets
    |> Seq.filter_map (fun (i, c) ->
           if c = 0 then None
           else
             let u = Buckets.upper i in
             let u = if Float.is_finite u then u else s.max_v in
             Some (Json.Array [ Json.Number u; Json.int c ]))
    |> List.of_seq
  in
  Json.Object
    ([
       ("count", Json.int s.count);
       ("sum", Json.Number s.sum);
       ("min", Json.Number s.min_v);
       ("max", Json.Number s.max_v);
       ("mean", Json.Number (if s.count = 0 then 0.0 else s.sum /. float_of_int s.count));
     ]
    @ List.map
        (fun (label, q) -> (label, Json.Number (histogram_quantile s q)))
        [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]
    @ [ ("buckets", Json.Array buckets) ])

let metrics_json () =
  let all = metrics () in
  let section pick =
    Json.Object (List.filter_map (fun (name, v) -> Option.map (fun j -> (name, j)) (pick v)) all)
  in
  Json.Object
    [
      ("schema", Json.int metrics_schema_version);
      ("counters", section (function Count c -> Some (Json.int c) | _ -> None));
      ("gauges", section (function Value v -> Some (Json.Number v) | _ -> None));
      ("histograms", section (function Stats s -> Some (histogram_json s) | _ -> None));
    ]

let write_line path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc s;
      output_char oc '\n')

let write_trace path = write_line path (trace_json ())
let write_metrics path = write_line path (Json.to_string (metrics_json ()))
