let log_src = Logs.Src.create "vartune.fault" ~doc:"Deterministic fault injection"

module Log = (val Logs.src_log log_src : Logs.LOG)

type point =
  | Read
  | Write
  | Rename
  | Lock
  | Fsync
  | Worker_crash
  | Enospc
  | Partial_write
  | Delay

let n_points = 9

let index = function
  | Read -> 0
  | Write -> 1
  | Rename -> 2
  | Lock -> 3
  | Fsync -> 4
  | Worker_crash -> 5
  | Enospc -> 6
  | Partial_write -> 7
  | Delay -> 8

let point_to_string = function
  | Read -> "read"
  | Write -> "write"
  | Rename -> "rename"
  | Lock -> "lock"
  | Fsync -> "fsync"
  | Worker_crash -> "worker_crash"
  | Enospc -> "enospc"
  | Partial_write -> "partial_write"
  | Delay -> "delay"

let point_of_string = function
  | "read" -> Some Read
  | "write" -> Some Write
  | "rename" -> Some Rename
  | "lock" -> Some Lock
  | "fsync" -> Some Fsync
  | "worker_crash" -> Some Worker_crash
  | "enospc" -> Some Enospc
  | "partial_write" -> Some Partial_write
  | "delay" -> Some Delay
  | _ -> None

exception Injected of { point : point; site : string; seq : int }

let () =
  Printexc.register_printer (function
    | Injected { point; site; seq } ->
      Some
        (Printf.sprintf "Vartune_fault.Fault.Injected(%s at %s, occurrence %d)"
           (point_to_string point) site seq)
    | _ -> None)

type trigger =
  | Rate of float (* fire each occurrence with this probability *)
  | Nth of int    (* fire exactly on the Nth occurrence, 1-based *)

type config = {
  spec : string;
  seed : int64;
  triggers : trigger option array; (* indexed by [index point] *)
  occ : int Atomic.t array;        (* occurrences consumed per point *)
  fired : int Atomic.t array;      (* injections delivered per point *)
}

(* The disabled fast path is [Atomic.get state == None]: one load and a
   branch, no allocation. *)
let state : config option Atomic.t = Atomic.make None

let injected_counter = Vartune_obs.Obs.Counter.make "fault.injected"

(* splitmix64 finaliser — self-contained on purpose: vartune_util's Pool
   consults this module, so depending on Vartune_util.Rng would be a
   cycle. *)
let mix64 (z : int64) : int64 =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 33)) 0xff51afd7ed558ccdL in
  let z = mul (logxor z (shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
  logxor z (shift_right_logical z 33)

let golden = 0x9e3779b97f4a7c15L

(* Uniform draw in [0, 1) for occurrence [k] (0-based) of point [i]. *)
let u01 ~seed ~point_ix ~k =
  let open Int64 in
  let h =
    mix64
      (add seed
         (add
            (mul golden (of_int (k + 1)))
            (mul 0xbf58476d1ce4e5b9L (of_int (point_ix + 1)))))
  in
  Int64.to_float (shift_right_logical h 11) /. 9007199254740992.0 (* 2^53 *)

let parse_trigger name value =
  match point_of_string name with
  | None -> Error (Printf.sprintf "unknown fault point %S" name)
  | Some point ->
    if String.length value > 0 && value.[0] = '#' then
      match int_of_string_opt (String.sub value 1 (String.length value - 1)) with
      | Some n when n >= 1 -> Ok (point, Nth n)
      | _ -> Error (Printf.sprintf "bad occurrence index %S for %s (want #N, N >= 1)" value name)
    else
      match float_of_string_opt value with
      | Some r when r >= 0.0 && r <= 1.0 -> Ok (point, Rate r)
      | Some r -> Error (Printf.sprintf "rate %g for %s out of range [0, 1]" r name)
      | None -> Error (Printf.sprintf "bad trigger %S for %s (want a rate or #N)" value name)

(* Structured form of a schedule: the items in spec order plus the
   seed.  [parse_spec]/[print_spec] round-trip exactly — rates are
   printed with %.17g, which float_of_string recovers bit-for-bit — so
   a schedule can be logged, stored and replayed verbatim. *)
let parse_spec spec =
  let spec = String.trim spec in
  if spec = "" then Error "empty fault spec"
  else
    let body, seed =
      match String.rindex_opt spec ':' with
      | None -> Ok spec, Ok 0L
      | Some i ->
        let s = String.sub spec (i + 1) (String.length spec - i - 1) in
        ( Ok (String.sub spec 0 i),
          match Int64.of_string_opt s with
          | Some v -> Ok v
          | None -> Error (Printf.sprintf "bad seed %S" s) )
    in
    match body, seed with
    | Error e, _ | _, Error e -> Error e
    | Ok body, Ok seed ->
      let items = String.split_on_char ',' body in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
          match String.index_opt item '=' with
          | None -> Error (Printf.sprintf "bad fault item %S (want point=trigger)" item)
          | Some eq -> (
            let name = String.trim (String.sub item 0 eq) in
            let value =
              String.trim (String.sub item (eq + 1) (String.length item - eq - 1))
            in
            match parse_trigger name value with
            | Error e -> Error e
            | Ok entry -> go (entry :: acc) rest))
      in
      (match go [] items with
      | Error e -> Error e
      | Ok entries -> Ok (entries, seed))

let print_trigger = function
  | Rate r -> Printf.sprintf "%.17g" r
  | Nth n -> Printf.sprintf "#%d" n

let print_spec (entries, seed) =
  Printf.sprintf "%s:%Ld"
    (String.concat ","
       (List.map
          (fun (point, trigger) ->
            Printf.sprintf "%s=%s" (point_to_string point) (print_trigger trigger))
          entries))
    seed

let parse spec =
  match parse_spec spec with
  | Error _ as e -> e
  | Ok (entries, seed) ->
    let triggers = Array.make n_points None in
    (* later items win, matching the array semantics the engine uses *)
    List.iter (fun (point, trigger) -> triggers.(index point) <- Some trigger) entries;
    Ok
      {
        spec = String.trim spec;
        seed;
        triggers;
        occ = Array.init n_points (fun _ -> Atomic.make 0);
        fired = Array.init n_points (fun _ -> Atomic.make 0);
      }

let configure spec =
  match parse spec with
  | Error _ as e -> e
  | Ok config ->
    Atomic.set state (Some config);
    Log.warn (fun m -> m "fault injection active: %s" config.spec);
    Ok ()

let clear () = Atomic.set state None
let active () = Atomic.get state <> None

(* Returns the 1-based occurrence index when the fault fires. *)
let fires_seq point ~site =
  match Atomic.get state with
  | None -> None
  | Some c -> (
    let i = index point in
    match c.triggers.(i) with
    | None -> None
    | Some trigger ->
      let k = Atomic.fetch_and_add c.occ.(i) 1 in
      let hit =
        match trigger with
        | Rate r -> u01 ~seed:c.seed ~point_ix:i ~k < r
        | Nth n -> k + 1 = n
      in
      if hit then begin
        Atomic.incr c.fired.(i);
        Vartune_obs.Obs.Counter.incr injected_counter;
        Log.debug (fun m ->
            m "injecting %s fault at %s (occurrence %d)" (point_to_string point)
              site (k + 1))
      end;
      if hit then Some (k + 1) else None)

let fires point ~site = fires_seq point ~site <> None

let check point ~site =
  match fires_seq point ~site with
  | None -> ()
  | Some seq -> raise (Injected { point; site; seq })

let injected point =
  match Atomic.get state with
  | None -> 0
  | Some c -> Atomic.get c.fired.(index point)

let occurrences point =
  match Atomic.get state with
  | None -> 0
  | Some c -> Atomic.get c.occ.(index point)

let total_injected () =
  match Atomic.get state with
  | None -> 0
  | Some c -> Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c.fired

let with_spec s f =
  let previous = Atomic.get state in
  (match configure s with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "Fault.with_spec: %s" msg));
  Fun.protect ~finally:(fun () -> Atomic.set state previous) f
