(** OCaml source emission for the compiled simulator (fig 7: "a C++
    description can be regenerated to yield an application-specific and
    optimized compiled code simulator").

    One layout, two renderings: the program is the {!Program_layout.t}
    that {!Compiled_sim} turns into closures; this module turns it into
    text.  The text comes in two shapes that share everything but the
    head and the tail:

    - {!emit_plugin} — a library-shaped module for the native engine.
      It registers step/reset closures and its raw state arrays
      through [Ocapi_native_abi]; stimuli, probes and fault pokes stay
      on the host side of the ABI.
    - {!emit_ocaml} — a standalone program depending only on the
      standard library, with recorded stimuli embedded as literals and
      a main loop that prints one line per probe token, so its
      behaviour can be diffed against the in-process engines (the
      codegen demo and the end-to-end tests do exactly that).

    When the emitter's width-bound analysis proves every intermediate
    mantissa fits an unboxed 63-bit [int], the text is rendered over
    native [int] words; otherwise over [int64] cells, semantically
    identical on any width.  Untimed kernels carrying a
    [Dataflow.Kernel.model] (RAM cells) are inlined as array accesses
    in both shapes.

    Both raise [Compiled_types.Unsupported] on designs outside the
    layout's scope, and {!emit_ocaml} also on untimed kernels without
    a model (their behaviour is an opaque closure). *)

val emitter_version : int
(** Bumped whenever the emitted plugin text, the slot-layout contract
    or the [Ocapi_native_abi] record shape changes incompatibly; the
    native engine folds it into the [.cmxs] cache key so stale
    artifacts are never paired with a newer host. *)

val emit_ocaml : Cycle_system.t -> cycles:int -> string
(** [emit_ocaml sys ~cycles] renders [sys] as a self-contained OCaml
    program that simulates exactly [cycles] cycles and prints a
    ["<cycle> <probe> <mantissa>"] line for every probe token.  Primary
    inputs are sampled over the cycle range at emission time (every
    cycle must produce a token) and embedded as literals, so the text
    depends only on the standard library. *)

(** What the native host needs to wire a compiled plugin into a
    session, read off the layout and marshalled next to the [.cmxs]
    artifact: slot and stamp indices for stimuli/probes/registers, FSM
    state counts, and the port-to-slot maps of the untimed kernels left
    on the host side.
    Slot indices address the plugin's value store; stamp indices its
    token-presence array.  [pm_kernels] lists only the kernels the
    emitter did {e not} inline, in [Cycle_system.untimed_components]
    order filtered to those kernels. *)
type plugin_meta = {
  pm_version : int;  (** {!emitter_version} at emission time *)
  pm_packed : bool;  (** word mode (unboxed [int]) or boxed [int64] *)
  pm_slots : int;  (** value-store length *)
  pm_stamp_count : int;  (** stamp-array length *)
  pm_statements : int;
      (** {!Program_layout.t.statements} — the session's static size,
          the Table 1 source-lines stand-in, equal to the compiled
          engine's *)
  pm_stims : (string * int * int) list;
      (** primary input name, slot, stamp *)
  pm_probes : (string * int * int * Fixed.format) list;
      (** probe name, slot, stamp, carried format *)
  pm_regs : (string * Fixed.format * int) list;
      (** register name, declared format, current-value slot; in
          [Cycle_system.all_regs] order — the shared SEU indexing *)
  pm_comps : (string * int) list;
      (** timed component name, state count; in system order *)
  pm_kernels :
    (string
    * (string * int * Fixed.format) list
    * (string * int * int) list)
    list;
      (** host-side kernel: component name, [(input port, slot,
          format)] bindings, [(output port, slot, stamp)] bindings *)
}

val emit_plugin : Cycle_system.t -> string * plugin_meta
(** [emit_plugin sys] renders [sys] as the source of a dynlinkable
    plugin module plus the {!plugin_meta} describing its slot layout.
    The module's only dependency is [Ocapi_native_abi]; on load it
    registers an [Ocapi_native_abi.plugin] exposing its state arrays
    and step/reset entry points. *)
