(** The flattened compiled program of a system (section 5, fig 7),
    computed once per design.  It has two renderings: {!Compiled_sim}
    turns it into closure arrays, {!Emit} into OCaml source.  Both read
    the same slot numbers, the same A/B partition and the same B-phase
    order from here, so the in-process program and the emitted one are
    one program.

    {2 Slot allocation}

    Slots index one value store:
    - net [i] in [Cycle_system.nets] order owns slot [i] and stamp [i];
    - then a current/next slot pair per register in
      [Cycle_system.all_regs] order;
    - then one slot per expression node, in the order of a
      [Signal.fold_dag] walk over every transition's output and assign
      roots (timed components, transitions and SFGs in system order).

    The native host derives every stimulus, probe and register-poke
    slot from this contract alone, so no layout metadata has to ride
    with a cached plugin beyond [Emit.plugin_meta]. *)

(** One statement of a transition body. *)
type stmt =
  | Node of Signal.t  (** compute the node into its own slot *)
  | Store of { src : Signal.t; net : int }
      (** copy node [src]'s slot onto net [net] and stamp the net *)
  | Assign of { src : Signal.t; cur : int; next : int }
      (** copy node [src]'s slot into a register's [next] slot; the
          register commit then copies [next] into [cur] *)

type transition = {
  tr_guard : Signal.t;  (** a pure (register/constant-only) guard *)
  tr_stmts : (stmt * bool) array;
      (** statements in generation order, each flagged [true] when it
          belongs to block B (its cone reads an SFG input) and [false]
          for block A (registers and constants only) *)
  tr_goto : int;  (** target state index *)
}

type comp = {
  c_name : string;
  c_initial : int;  (** initial state index *)
  c_by_state : int array array;
      (** per state index (the state count is its length), the state's
          transitions in priority order *)
  c_transitions : transition array;
}

(** An untimed kernel's port wiring. *)
type kernel = {
  k_name : string;
  k_kernel : Dataflow.Kernel.t;
  k_inputs : (string * int * Fixed.format) list;
      (** input port, net, carried format *)
  k_outputs : (string * int) list;  (** connected output port, net *)
}

(** A unit of the B phase: timed component [i] (its block B) or
    untimed kernel [i] (its firing). *)
type b_unit = Comp of int | Kernel of int

type stim = {
  st_name : string;
  st_fmt : Fixed.format;
  st_fn : int -> Fixed.t option;
  st_net : int;
}

type probe = { pr_name : string; pr_net : int; pr_fmt : Fixed.format }

type t = {
  slots : int;  (** value-store length (at least 1) *)
  nets : (string * Fixed.format option) array;
      (** net name and carried format, indexed by net *)
  node_slots : (int, int) Hashtbl.t;  (** [Signal.id] -> slot *)
  nodes : Signal.t list;  (** every expression node, in slot order *)
  reg_cur : (int, int) Hashtbl.t;  (** [Signal.Reg.id] -> current slot *)
  sink_net : (string * string, int) Hashtbl.t;
      (** (component, input port) -> net *)
  reg_inits : (int64 * int) list;
      (** initial mantissa and current slot, in [all_regs] order *)
  comps : comp array;  (** timed components, in system order *)
  kernels : kernel array;  (** untimed components, in system order *)
  b_order : b_unit array;  (** topological order of the B phase *)
  stims : stim list;  (** connected primary inputs, in system order *)
  probes : probe list;  (** connected probes, in system order *)
  regs : (string * Fixed.format * int) list;
      (** register name, declared format, current slot; in [all_regs]
          order — the shared SEU indexing *)
  statements : int;
      (** the program's static size: node, store and assign statements
          plus one commit per register assign *)
}

(** [of_system sys] lays [sys] out.
    @raise Compiled_types.Unsupported on inconsistent net formats,
    unconnected SFG or kernel inputs, probes of unknown format, and
    combinational cycles between B-phase units. *)
val of_system : Cycle_system.t -> t

val node_slot : t -> Signal.t -> int
val reg_slot : t -> Signal.Reg.t -> int

(** [input_net t ~comp port] is the net feeding [comp]'s input [port]. *)
val input_net : t -> comp:string -> string -> int option

(** [align_shifts fa fb] are the left shifts that bring two operands to
    their common fraction (the larger of the two) before a binary
    operation. *)
val align_shifts : Fixed.format -> Fixed.format -> int * int
