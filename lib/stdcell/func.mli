(** Logic functions implemented by the standard cell catalog.

    The technology mapper matches generic netlist nodes against these
    functions; the characteriser uses them to derive pin lists and timing
    senses. *)

type ff_features = { reset : bool; set : bool; enable : bool; scan : bool }

type t =
  | Inv
  | Buf
  | Nand of int  (** n-input NAND, 2 <= n <= 4 *)
  | Nor of int
  | And of int
  | Or of int
  | Nand_b of int  (** NAND with the first input inverted (bubble) *)
  | Nor_b of int
  | Xor of int  (** 2 or 3 inputs *)
  | Xnor of int
  | Mux2  (** output = S ? B : A *)
  | Mux2_inv  (** inverting 2:1 mux *)
  | Mux4
  | Full_adder  (** outputs S and CO *)
  | Half_adder  (** outputs S and CO *)
  | Maj3  (** majority-of-3 (a carry gate) *)
  | Dff of ff_features
  | Dlat of { reset : bool }
  | Tie_low
  | Tie_high
  | Delay_buf  (** delay element; treated as a slow buffer *)

val input_names : t -> string list
(** Data-input pin names, e.g. [["A"; "B"]].  Excludes the clock. *)

val output_names : t -> string list
(** Output pin names, e.g. [["Z"]] or [["S"; "CO"]]. *)

val clock_name : t -> string option
(** [Some "CK"] for flip-flops, [Some "EN"]-less latches use ["G"]. *)

val is_sequential : t -> bool

val arc_sense : t -> input:string -> output:string -> Vartune_liberty.Arc.sense
(** Unateness of the input→output arc. *)

val inversions : t -> int
(** Number of logic inversion stages between input and output — drives the
    intrinsic-delay estimate in the characteriser. *)

val equal : t -> t -> bool
