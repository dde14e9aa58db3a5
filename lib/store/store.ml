module Obs = Vartune_obs.Obs
module Fault = Vartune_fault.Fault

let src = Logs.Src.create "vartune.store" ~doc:"persistent artifact store"

module Log = (val Logs.src_log src : Logs.LOG)

let c_hit = Obs.Counter.make "store.hit"
let c_miss = Obs.Counter.make "store.miss"
let c_write = Obs.Counter.make "store.write"
let c_evict = Obs.Counter.make "store.evict"
let c_read_bytes = Obs.Counter.make "store.read_bytes"
let c_write_bytes = Obs.Counter.make "store.write_bytes"
let c_retry = Obs.Counter.make "store.retry"
let c_error = Obs.Counter.make "store.error"
let c_degraded = Obs.Counter.make "store.degraded"

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

module Key = struct
  (* The recipe accumulates into a plain string: every ingredient is
     labelled and typed, strings are length-prefixed, floats travel as
     bit patterns — two distinct recipes can never serialise to the
     same id.  The id itself is stored in the entry and compared on
     read, so the digest below only has to spread entries across file
     names, not guarantee uniqueness. *)
  type t = string

  let v stage = Printf.sprintf "v%d|%s" Codec.version stage
  let int t label value = Printf.sprintf "%s|%s=i:%d" t label value
  let bool t label value = Printf.sprintf "%s|%s=b:%b" t label value
  let float t label value = Printf.sprintf "%s|%s=f:%Lx" t label (Int64.bits_of_float value)

  let str t label value =
    Printf.sprintf "%s|%s=s%d:%s" t label (String.length value) value

  let floats t label values =
    let b = Buffer.create (String.length t + 32 + (Array.length values * 17)) in
    Buffer.add_string b t;
    Buffer.add_string b (Printf.sprintf "|%s=F%d:" label (Array.length values));
    Array.iter
      (fun v -> Buffer.add_string b (Printf.sprintf "%Lx," (Int64.bits_of_float v)))
      values;
    Buffer.contents b

  let id t = t

  (* FNV-1a 64.  The accumulator is a local ref the compiler keeps
     unboxed, so hashing allocates nothing whatever the length. *)
  let fnv1a64 seed s =
    let h = ref seed in
    for i = 0 to String.length s - 1 do
      let c = Int64.of_int (Char.code (String.unsafe_get s i)) in
      h := Int64.mul (Int64.logxor !h c) 0x100000001b3L
    done;
    !h

  (* under two different offset bases: a 128-bit spread *)
  let hex t =
    Printf.sprintf "%016Lx%016Lx"
      (fnv1a64 0xcbf29ce484222325L t)
      (fnv1a64 0x6c62272e07bb0142L t)
end

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)
(* ------------------------------------------------------------------ *)

type error =
  | Io of { site : string; reason : string }
  | No_space of { site : string }
  | Locked
  | Disabled

let error_to_string = function
  | Io { site; reason } -> Printf.sprintf "I/O failure at %s: %s" site reason
  | No_space { site } -> Printf.sprintf "no space left on device at %s" site
  | Locked -> "entry locked by a live writer"
  | Disabled -> "store degraded to no-store mode"

(* ------------------------------------------------------------------ *)
(* In-process tier                                                     *)
(* ------------------------------------------------------------------ *)

(* Decoded values of every artifact type share one table as [univ].
   Each [kind] extends it with a constructor of its own, so a
   projection succeeds only on a value its own injection made. *)
type univ = ..
type 'a kind = { inj : 'a -> univ; prj : univ -> 'a option }

let kind (type a) () : a kind =
  let module K = struct
    type univ += V of a
  end in
  { inj = (fun v -> K.V v); prj = (function K.V v -> Some v | _ -> None) }

let memory_budget = 8 * 1024 * 1024

module Stamps = Map.Make (Int)

type entry = { value : univ; size : int; mutable stamp : int }

(* A least-recently-used table under one lock: [order] maps each
   entry's last-use stamp to its recipe id, so its minimum is the next
   eviction.  A scope is the same table with no budget. *)
type memory = {
  lock : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  mutable order : string Stamps.t;
  mutable clock : int;
  mutable bytes : int;
  budget : int;
}

type scope = memory

let new_memory ~budget =
  { lock = Mutex.create (); entries = Hashtbl.create 16; order = Stamps.empty; clock = 0;
    bytes = 0; budget }

let scope () = new_memory ~budget:max_int

let forget m id =
  match Hashtbl.find_opt m.entries id with
  | None -> ()
  | Some e ->
    Hashtbl.remove m.entries id;
    m.order <- Stamps.remove e.stamp m.order;
    m.bytes <- m.bytes - e.size

(* Stamps start at 1, so a new entry's 0 is in no map. *)
let touch m id e =
  m.order <- Stamps.remove e.stamp m.order;
  m.clock <- m.clock + 1;
  e.stamp <- m.clock;
  m.order <- Stamps.add e.stamp id m.order

let recall m kind id =
  Mutex.protect m.lock (fun () ->
      match Hashtbl.find_opt m.entries id with
      | None -> None
      | Some e ->
        let v = kind.prj e.value in
        if Option.is_some v then touch m id e;
        v)

(* An entry over half the budget is not admitted: one such artifact
   would otherwise evict everything else, and a sweep that computes a
   large run per request would flush the values every request shares
   (the statistical library) each time. *)
let remember m kind id v ~size =
  if size <= m.budget / 2 then
    Mutex.protect m.lock (fun () ->
        forget m id;
        let e = { value = kind.inj v; size; stamp = 0 } in
        touch m id e;
        Hashtbl.replace m.entries id e;
        m.bytes <- m.bytes + size;
        while m.bytes > m.budget do
          forget m (snd (Stamps.min_binding m.order))
        done)

(* ------------------------------------------------------------------ *)
(* Store handle                                                        *)
(* ------------------------------------------------------------------ *)

type t = {
  root : string;
  memory : memory;
  hits : int Atomic.t;
  misses : int Atomic.t;
  writes : int Atomic.t;
  evictions : int Atomic.t;
  read_bytes : int Atomic.t;
  written_bytes : int Atomic.t;
  retries : int Atomic.t;
  errors : int Atomic.t;
  consec_failures : int Atomic.t;
  is_degraded : bool Atomic.t;
}

type stats = {
  hits : int;
  misses : int;
  writes : int;
  evictions : int;
  read_bytes : int;
  written_bytes : int;
  retries : int;
  errors : int;
  degraded : bool;
}

let stats (t : t) =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    writes = Atomic.get t.writes;
    evictions = Atomic.get t.evictions;
    read_bytes = Atomic.get t.read_bytes;
    written_bytes = Atomic.get t.written_bytes;
    retries = Atomic.get t.retries;
    errors = Atomic.get t.errors;
    degraded = Atomic.get t.is_degraded;
  }

let degraded t = Atomic.get t.is_degraded
let dir t = t.root
let objects_dir t = Filename.concat t.root "objects"

let default_dir () =
  match Sys.getenv_opt "VARTUNE_STORE" with
  | Some d when d <> "" -> d
  | _ -> (
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> Filename.concat d "vartune"
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" ->
        Filename.concat (Filename.concat h ".cache") "vartune"
      | _ -> "_vartune_store"))

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Grace period after which another writer's lock (or an orphaned temp
   file) is considered abandoned — a crashed process, not a live one. *)
let stale_age_s = 120.0

let is_litter name =
  Filename.check_suffix name ".lock"
  || List.mem "tmp" (String.split_on_char '.' name)

let file_age path =
  match Unix.stat path with
  | { Unix.st_mtime; _ } -> Some (Unix.gettimeofday () -. st_mtime)
  | exception Unix.Unix_error _ -> None

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()
let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()
let readdir_quietly path = try Sys.readdir path with Sys_error _ -> [||]

let sweep_litter root =
  let objects = Filename.concat root "objects" in
  Array.iter
    (fun sub ->
      let subdir = Filename.concat objects sub in
      if try Sys.is_directory subdir with Sys_error _ -> false then
        Array.iter
          (fun name ->
            if is_litter name then begin
              let path = Filename.concat subdir name in
              match file_age path with
              | Some age when age > stale_age_s ->
                Log.debug (fun m -> m "sweeping stale file %s" path);
                remove_quietly path
              | _ -> ()
            end)
          (readdir_quietly subdir))
    (readdir_quietly objects)

let open_dir root =
  mkdir_p (Filename.concat root "objects");
  sweep_litter root;
  {
    root;
    memory = new_memory ~budget:memory_budget;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    writes = Atomic.make 0;
    evictions = Atomic.make 0;
    read_bytes = Atomic.make 0;
    written_bytes = Atomic.make 0;
    retries = Atomic.make 0;
    errors = Atomic.make 0;
    consec_failures = Atomic.make 0;
    is_degraded = Atomic.make false;
  }

let entry_path t key =
  let hex = Key.hex key in
  Filename.concat (Filename.concat (objects_dir t) (String.sub hex 0 2)) (hex ^ ".vt")

(* ------------------------------------------------------------------ *)
(* Retry / degradation policy                                          *)
(* ------------------------------------------------------------------ *)

(* Transient faults (interrupted reads, flaky writes, lock hiccups) are
   retried a bounded number of times with exponential backoff; the
   jitter decorrelates concurrent retriers and is derived from a global
   counter, not the wall clock, so replay stays deterministic.  ENOSPC
   is persistent: no retry, the handle degrades immediately.  After
   [degrade_after] consecutive exhausted-retry failures the handle also
   degrades: loads report misses, saves become no-ops, the pipeline
   recomputes and completes without the accelerator. *)
let retry_attempts = 3
let degrade_after = 5
let backoff_base_s = 0.0005
let backoff_salt = Atomic.make 0

let backoff_s attempt =
  let salt = Atomic.fetch_and_add backoff_salt 1 in
  let h = Key.fnv1a64 0xcbf29ce484222325L (Printf.sprintf "%d.%d" attempt salt) in
  let jitter = Int64.to_float (Int64.logand h 0xffL) /. 255.0 in
  backoff_base_s *. (2.0 ** float_of_int attempt) *. (1.0 +. jitter)

let degrade t reason =
  if not (Atomic.exchange t.is_degraded true) then begin
    Obs.Counter.incr c_degraded;
    Log.warn (fun m ->
        m "store degraded to no-store mode (%s); the pipeline continues uncached" reason)
  end

let record_failure (t : t) error =
  Atomic.incr t.errors;
  Obs.Counter.incr c_error;
  match error with
  | No_space { site } -> degrade t (Printf.sprintf "%s: no space left on device" site)
  | Io { site; reason } ->
    let n = 1 + Atomic.fetch_and_add t.consec_failures 1 in
    Log.warn (fun m -> m "store %s failed after %d attempts: %s" site retry_attempts reason);
    if n >= degrade_after then
      degrade t (Printf.sprintf "%d consecutive I/O failures, last at %s" n site)
  | Locked | Disabled -> ()

let record_success (t : t) = Atomic.set t.consec_failures 0

(* Classifies one failed attempt.  [`Reraise] is for exceptions that do
   not look like I/O at all — caller bugs must not be eaten here. *)
let classify = function
  | Unix.Unix_error (Unix.ENOSPC, _, _) | Fault.Injected { point = Fault.Enospc; _ } ->
    `No_space
  | Fault.Injected { point; site; seq } ->
    `Transient
      (Printf.sprintf "injected %s fault at %s (occurrence %d)"
         (Fault.point_to_string point) site seq)
  | Unix.Unix_error (err, fn, _) ->
    `Transient (Printf.sprintf "%s in %s" (Unix.error_message err) fn)
  | Sys_error reason -> `Transient reason
  | _ -> `Reraise

let with_retries (t : t) ~site f =
  let rec go attempt =
    match f () with
    | v -> Ok v
    | exception exn -> (
      match classify exn with
      | `Reraise -> Printexc.raise_with_backtrace exn (Printexc.get_raw_backtrace ())
      | `No_space -> Error (No_space { site })
      | `Transient reason ->
        if attempt + 1 >= retry_attempts then Error (Io { site; reason })
        else begin
          Atomic.incr t.retries;
          Obs.Counter.incr c_retry;
          Log.debug (fun m ->
              m "%s attempt %d failed (%s); retrying" site (attempt + 1) reason);
          Unix.sleepf (backoff_s attempt);
          go (attempt + 1)
        end)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Entry framing                                                       *)
(* ------------------------------------------------------------------ *)

let magic = "VTSTOR01"

(* 63 bits of FNV-1a are plenty for an integrity check, and storing the
   checksum through the codec's int path keeps the framing uniform. *)
let checksum payload = Int64.to_int (Key.fnv1a64 0xcbf29ce484222325L payload)

let frame key payload =
  let b = Buffer.create (String.length payload + 256) in
  Buffer.add_string b magic;
  Codec.w_int b Codec.version;
  Codec.w_string b (Key.id key);
  Codec.w_int b (checksum payload);
  Codec.w_string b payload;
  Buffer.contents b

(* Splits an entry file back into its payload, verifying every frame
   field.  Raises Codec.Corrupt on any inconsistency. *)
let unframe key contents =
  let mlen = String.length magic in
  if String.length contents < mlen then raise (Codec.Corrupt "entry shorter than magic");
  if String.sub contents 0 mlen <> magic then raise (Codec.Corrupt "bad magic");
  let r = Codec.reader (String.sub contents mlen (String.length contents - mlen)) in
  let version = Codec.r_int r in
  if version <> Codec.version then
    raise (Codec.Corrupt (Printf.sprintf "codec version %d (want %d)" version Codec.version));
  let stored_id = Codec.r_string r in
  let sum = Codec.r_int r in
  let payload = Codec.r_string r in
  if not (Codec.at_end r) then raise (Codec.Corrupt "trailing bytes after payload");
  if stored_id <> Key.id key then
    raise (Codec.Corrupt "recipe mismatch (digest collision?)");
  if sum <> checksum payload then raise (Codec.Corrupt "payload checksum mismatch");
  payload

(* ------------------------------------------------------------------ *)
(* Load                                                                *)
(* ------------------------------------------------------------------ *)

let evict (t : t) path reason =
  Atomic.incr t.evictions;
  Obs.Counter.incr c_evict;
  Log.warn (fun m -> m "evicting corrupt store entry %s (%s)" path reason);
  remove_quietly path

(* One read attempt.  ENOENT is a miss, not a failure; everything else
   raises and is classified by [with_retries]. *)
let read_entry path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> None
  | fd ->
    Fun.protect
      ~finally:(fun () -> close_quietly fd)
      (fun () ->
        Fault.check Fault.Read ~site:"store.load.read";
        let len = (Unix.fstat fd).Unix.st_size in
        let buf = Bytes.create len in
        let rec fill off =
          if off < len then begin
            let n = Unix.read fd buf off (len - off) in
            if n = 0 then raise (Unix.Unix_error (Unix.EIO, "read", path));
            fill (off + n)
          end
        in
        fill 0;
        Some (Bytes.unsafe_to_string buf))

(* The decoded value with its payload length, the in-process tier's
   charge. *)
let load_sized (t : t) key decode =
  Obs.span "store.load" ~attrs:(fun () -> [ ("key", Key.id key) ]) @@ fun () ->
  if Atomic.get t.is_degraded then Error Disabled
  else begin
    let path = entry_path t key in
    let miss () =
      Atomic.incr t.misses;
      Obs.Counter.incr c_miss;
      Ok None
    in
    match with_retries t ~site:"store.load" (fun () -> read_entry path) with
    | Error e ->
      record_failure t e;
      Error e
    | Ok None -> miss ()
    | Ok (Some contents) -> (
      record_success t;
      match
        let payload = unframe key contents in
        (decode (Codec.reader payload), String.length payload)
      with
      | sized ->
        Atomic.incr t.hits;
        ignore (Atomic.fetch_and_add t.read_bytes (String.length contents));
        Obs.Counter.incr c_hit;
        Obs.Counter.add c_read_bytes (String.length contents);
        Ok (Some sized)
      | exception Codec.Corrupt reason ->
        evict t path reason;
        miss ()
      | exception (Invalid_argument reason | Failure reason) ->
        evict t path reason;
        miss ()
      | exception Not_found ->
        evict t path "decoder raised Not_found";
        miss ()
      | exception exn ->
        (* a decoder blowing up on adversarial bytes is still corruption;
           it must never escape as a crash *)
        evict t path (Printf.sprintf "decoder raised %s" (Printexc.to_string exn));
        miss ())
  end

let load_result t key decode = Result.map (Option.map fst) (load_sized t key decode)

let load (t : t) key decode =
  match load_result t key decode with Ok v -> v | Error _ -> None

(* ------------------------------------------------------------------ *)
(* Save                                                                *)
(* ------------------------------------------------------------------ *)

(* Per-entry advisory lock.  Entries are content-addressed — two
   concurrent writers of the same key land identical bytes — so the
   lock only avoids duplicated write work; correctness comes from the
   atomic rename.  A lock older than [stale_age_s] belongs to a crashed
   writer and is broken. *)
let try_lock path =
  Fault.check Fault.Lock ~site:"store.save.lock";
  let lock = path ^ ".lock" in
  let acquire () =
    match Unix.openfile lock [ Unix.O_CREAT; Unix.O_EXCL; Unix.O_WRONLY ] 0o644 with
    | fd ->
      Unix.close fd;
      true
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false
  in
  if acquire () then Some lock
  else
    match file_age lock with
    | Some age when age > stale_age_s ->
      Log.warn (fun m -> m "breaking stale store lock %s" lock);
      remove_quietly lock;
      if acquire () then Some lock else None
    | Some _ -> None
    | None ->
      (* the competing writer just finished; take over *)
      if acquire () then Some lock else None

let temp_counter = Atomic.make 0

(* One landing attempt: write a temp file, fsync, atomically rename.
   Cleans its temp file and raises on failure.  An injected
   partial-write lands a truncated entry *silently* — exercising the
   reader-side promise that corruption is evicted, never served. *)
let land_entry path framed =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add temp_counter 1)
  in
  match
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> close_quietly fd)
      (fun () ->
        Fault.check Fault.Enospc ~site:"store.save.write";
        Fault.check Fault.Write ~site:"store.save.write";
        let len =
          if Fault.fires Fault.Partial_write ~site:"store.save.write" then
            String.length framed / 2
          else String.length framed
        in
        let rec put off =
          if off < len then put (off + Unix.write_substring fd framed off (len - off))
        in
        put 0;
        Fault.check Fault.Fsync ~site:"store.save.fsync";
        Unix.fsync fd;
        len)
  with
  | len ->
    (match Fault.check Fault.Rename ~site:"store.save.rename"; Unix.rename tmp path with
    | () -> len
    | exception exn ->
      remove_quietly tmp;
      raise exn)
  | exception exn ->
    remove_quietly tmp;
    raise exn

let payload_of encode =
  let b = Buffer.create 65536 in
  encode b;
  Buffer.contents b

(* Lands the entry bytes [framed ()] returns; they are made under the
   entry lock, so a writer that finds the lock taken skips the work. *)
let save_framed (t : t) key framed =
  Obs.span "store.save" ~attrs:(fun () -> [ ("key", Key.id key) ]) @@ fun () ->
  if Atomic.get t.is_degraded then Error Disabled
  else begin
    let path = entry_path t key in
    let outcome =
      match
        with_retries t ~site:"store.save.lock" (fun () ->
            mkdir_p (Filename.dirname path);
            try_lock path)
      with
      | Error e -> Error e
      | Ok None -> Error Locked
      | Ok (Some lock) ->
        (* everything between acquisition and release — including the
           caller's [encode] — is under [Fun.protect]: a writer dying in
           its critical section cannot leave a permanent lock *)
        Fun.protect
          ~finally:(fun () -> remove_quietly lock)
          (fun () ->
            let framed = framed () in
            with_retries t ~site:"store.save" (fun () -> land_entry path framed))
    in
    match outcome with
    | Ok written ->
      record_success t;
      Atomic.incr t.writes;
      ignore (Atomic.fetch_and_add t.written_bytes written);
      Obs.Counter.incr c_write;
      Obs.Counter.add c_write_bytes written;
      Log.debug (fun m -> m "stored %s (%d bytes)" path written);
      Ok ()
    | Error Locked ->
      Log.debug (fun m -> m "store entry %s locked by a live writer; skipping" path);
      Error Locked
    | Error e ->
      record_failure t e;
      Error e
  end

let save_result t key encode = save_framed t key (fun () -> frame key (payload_of encode))

let ignore_outcome = function Ok () | Error (Locked | Disabled | Io _ | No_space _) -> ()
let save t key encode = ignore_outcome (save_result t key encode)

(* ------------------------------------------------------------------ *)
(* Tiered fetch                                                        *)
(* ------------------------------------------------------------------ *)

(* A degraded handle is in no-store mode for its in-process tier too. *)
let live (t : t) = not (Atomic.get t.is_degraded)

(* The scope first: a value it holds touches no handle.  Then each
   handle is probed in memory, then on disk.  A computed value is
   encoded once, remembered by every live handle and only then saved,
   so a concurrent fetch in this process finds it in memory rather than
   decoding the bytes being written.  The scope holds every value
   returned; with no live handle nothing is encoded.  A scoped value is
   its scope's to hold and stays out of the handles' memory: the
   ~1.7 MB synthesis runs a set-up scopes would otherwise evict the
   artifacts every request shares (the statistical library). *)
let fetch ~kind ?scope stores key decode encode compute =
  let id = Key.id key in
  let keep s v ~size = if Option.is_none scope then remember s.memory kind id v ~size in
  let rec probe = function
    | [] ->
      let v = compute () in
      let tiers = List.filter live stores in
      if tiers <> [] then begin
        let payload = Obs.span "store.encode" (fun () -> payload_of (encode v)) in
        List.iter (fun s -> keep s v ~size:(String.length payload)) tiers;
        let framed = frame key payload in
        List.iter (fun s -> ignore_outcome (save_framed s key (fun () -> framed))) tiers
      end;
      (v, false)
    | s :: rest -> (
      match if live s then recall s.memory kind id else None with
      | Some v ->
        Atomic.incr s.hits;
        Obs.Counter.incr c_hit;
        (v, true)
      | None -> (
        match load_sized s key decode with
        | Ok (Some (v, size)) ->
          keep s v ~size;
          (v, true)
        | Ok None | Error _ -> probe rest))
  in
  match Option.bind scope (fun m -> recall m kind id) with
  | Some v -> (v, true)
  | None ->
    let ((v, _) as got) = probe stores in
    Option.iter (fun m -> remember m kind id v ~size:0) scope;
    got

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)
(* ------------------------------------------------------------------ *)

let fold_entries t f init =
  Array.fold_left
    (fun acc sub ->
      let subdir = Filename.concat (objects_dir t) sub in
      if not (try Sys.is_directory subdir with Sys_error _ -> false) then acc
      else
        Array.fold_left
          (fun acc name ->
            if Filename.check_suffix name ".vt" then f acc (Filename.concat subdir name)
            else acc)
          acc (readdir_quietly subdir))
    init
    (readdir_quietly (objects_dir t))

let entry_count t = fold_entries t (fun acc _ -> acc + 1) 0

let wipe t = fold_entries t (fun () path -> remove_quietly path) ()
