(* The flattened compiled program, computed once per design and rendered
   twice: [Compiled_sim] turns it into closures, [Emit] into OCaml text.
   Everything both renderings must agree on lives here — the slot
   allocation, net formats, the per-transition A/B partition, kernel
   port wiring, the B-phase order and the stimulus/probe/register rows. *)

let unsupported fmt =
  Format.kasprintf (fun s -> raise (Compiled_types.Unsupported s)) fmt

type stmt =
  | Node of Signal.t
  | Store of { src : Signal.t; net : int }
  | Assign of { src : Signal.t; cur : int; next : int }

type transition = {
  tr_guard : Signal.t;
  tr_stmts : (stmt * bool) array;
  tr_goto : int;
}

type comp = {
  c_name : string;
  c_initial : int;
  c_by_state : int array array;
  c_transitions : transition array;
}

type kernel = {
  k_name : string;
  k_kernel : Dataflow.Kernel.t;
  k_inputs : (string * int * Fixed.format) list;
  k_outputs : (string * int) list;
}

type b_unit = Comp of int | Kernel of int

type stim = {
  st_name : string;
  st_fmt : Fixed.format;
  st_fn : int -> Fixed.t option;
  st_net : int;
}

type probe = { pr_name : string; pr_net : int; pr_fmt : Fixed.format }

type t = {
  slots : int;
  nets : (string * Fixed.format option) array;
  node_slots : (int, int) Hashtbl.t;
  nodes : Signal.t list;
  reg_cur : (int, int) Hashtbl.t;
  sink_net : (string * string, int) Hashtbl.t;
  reg_inits : (int64 * int) list;
  comps : comp array;
  kernels : kernel array;
  b_order : b_unit array;
  stims : stim list;
  probes : probe list;
  regs : (string * Fixed.format * int) list;
  statements : int;
}

let node_slot t n = Hashtbl.find t.node_slots (Signal.id n)
let reg_slot t r = Hashtbl.find t.reg_cur (Signal.Reg.id r)
let input_net t ~comp port = Hashtbl.find_opt t.sink_net (comp, port)

(* Alignment shifts for a binary operation whose common fraction is the
   max of the operand fractions. *)
let align_shifts (fa : Fixed.format) (fb : Fixed.format) =
  let frac = max fa.Fixed.frac fb.Fixed.frac in
  (frac - fa.Fixed.frac, frac - fb.Fixed.frac)

let roots_of_transition tr =
  List.concat_map
    (fun sfg -> List.map snd (Sfg.outputs sfg) @ List.map snd (Sfg.assigns sfg))
    tr.Fsm.t_actions

(* Does a node's cone read an SFG input?  Every child must be visited
   even when the answer is already known — short-circuiting would leave
   siblings unclassified, and an unclassified input-dependent node would
   default to block A and read stale values.  Hence the let-bound
   disjunctions. *)
let classify_nodes roots =
  let cls : (int, bool) Hashtbl.t = Hashtbl.create 256 in
  let rec go n =
    match Hashtbl.find_opt cls (Signal.id n) with
    | Some b -> b
    | None ->
      let b =
        match Signal.op n with
        | Signal.Input_read _ -> true
        | Signal.Const _ | Signal.Reg_read _ -> false
        | Signal.Neg x | Signal.Abs x | Signal.Not x
        | Signal.Resize (_, _, x)
        | Signal.Rom_read (_, x)
        | Signal.Shift_left (x, _)
        | Signal.Shift_right (x, _) -> go x
        | Signal.Add (x, y) | Signal.Sub (x, y) | Signal.Mul (x, y)
        | Signal.And (x, y) | Signal.Or (x, y) | Signal.Xor (x, y)
        | Signal.Eq (x, y) | Signal.Lt (x, y) | Signal.Le (x, y) ->
          let bx = go x in
          let by = go y in
          bx || by
        | Signal.Mux (s, x, y) ->
          let bs = go s in
          let bx = go x in
          let by = go y in
          bs || bx || by
      in
      Hashtbl.replace cls (Signal.id n) b;
      b
  in
  List.iter (fun r -> ignore (go r)) roots;
  fun n ->
    match Hashtbl.find_opt cls (Signal.id n) with Some b -> b | None -> false

(* Net formats: primary inputs and untimed ports declare theirs; timed
   outputs take the format of the producing expression, which must agree
   across all SFGs that produce the port. *)
let net_formats sys ~driver_net =
  let fmts = Hashtbl.create 64 in
  let set net fmt =
    match Hashtbl.find_opt fmts net with
    | None -> Hashtbl.replace fmts net fmt
    | Some f ->
      if not (Fixed.equal_format f fmt) then
        unsupported "net %s is driven with inconsistent formats %s and %s" net
          (Fixed.format_to_string f) (Fixed.format_to_string fmt)
  in
  let driven key fmt = Option.iter (fun net -> set net fmt) (driver_net key) in
  List.iter
    (fun (name, fmt, _) -> driven (name, "out") fmt)
    (Cycle_system.primary_inputs sys);
  List.iter
    (fun (name, k) ->
      List.iter
        (fun (port, _) -> driven (name, port) (Dataflow.Kernel.port_format k port))
        k.Dataflow.Kernel.k_outputs)
    (Cycle_system.untimed_components sys);
  List.iter
    (fun (cname, fsm) ->
      List.iter
        (fun sfg ->
          List.iter (fun (port, e) -> driven (cname, port) (Signal.fmt e))
            (Sfg.outputs sfg))
        (Fsm.all_sfgs fsm))
    (Cycle_system.timed_components sys);
  fmts

(* Kahn's algorithm over the B-phase units (timed components, then
   untimed kernels), edges writer(net) -> reader.  The edge order —
   component reads in [b_read]'s table order, then kernel reads — fixes
   the emitted step text, so it is part of the layout contract. *)
let schedule_b_units ~names ~b_written ~b_read ~kernel_reads =
  let idx = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace idx n i) names;
  let n_units = List.length names in
  let succs = Array.make (max 1 n_units) [] in
  let indeg = Array.make (max 1 n_units) 0 in
  let add_edge writer reader =
    if writer <> reader then begin
      let w = Hashtbl.find idx writer and r = Hashtbl.find idx reader in
      succs.(w) <- r :: succs.(w);
      indeg.(r) <- indeg.(r) + 1
    end
  in
  let read reader net =
    Option.iter (fun w -> add_edge w reader) (Hashtbl.find_opt b_written net)
  in
  Hashtbl.iter (fun (reader, net) () -> read reader net) b_read;
  List.iter (fun (kname, nets) -> List.iter (read kname) nets) kernel_reads;
  let order = ref [] and queue = Queue.create () and visited = ref 0 in
  for i = 0 to n_units - 1 do
    if indeg.(i) = 0 then Queue.add i queue
  done;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    order := i :: !order;
    incr visited;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then Queue.add j queue)
      succs.(i)
  done;
  if !visited <> n_units then
    unsupported
      "combinational component cycle involving %s; use the interpreted \
       scheduler"
      (String.concat ", " (List.filteri (fun i _ -> indeg.(i) > 0) names));
  List.rev !order

let of_system sys =
  let next_slot = ref 0 in
  let fresh () =
    let s = !next_slot in
    incr next_slot;
    s
  in
  let sys_nets = Cycle_system.nets sys in
  let net_slot = Hashtbl.create 64 in
  let sink_net = Hashtbl.create 64 and driver_net = Hashtbl.create 64 in
  List.iter
    (fun (net_name, (dc, dp), sinks) ->
      let i = fresh () in
      Hashtbl.replace net_slot net_name i;
      Hashtbl.replace driver_net (dc, dp) net_name;
      List.iter (fun (sc, sp) -> Hashtbl.replace sink_net (sc, sp) i) sinks)
    sys_nets;
  let all_regs = Cycle_system.all_regs sys in
  let reg_cur = Hashtbl.create 64 and reg_next = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let cur = fresh () in
      Hashtbl.replace reg_cur (Signal.Reg.id r) cur;
      Hashtbl.replace reg_next (Signal.Reg.id r) (fresh ()))
    all_regs;
  let fmts = net_formats sys ~driver_net:(Hashtbl.find_opt driver_net) in
  let nets =
    List.map (fun (name, _, _) -> (name, Hashtbl.find_opt fmts name)) sys_nets
    |> Array.of_list
  in
  let driver key =
    Option.map (Hashtbl.find net_slot) (Hashtbl.find_opt driver_net key)
  in
  let all_timed = Cycle_system.timed_components sys in
  let node_slots = Hashtbl.create 1024 and nodes = ref [] in
  List.iter
    (fun (_, fsm) ->
      List.iter
        (fun tr ->
          List.iter
            (fun root ->
              Signal.fold_dag root ~init:() ~f:(fun () n ->
                  if not (Hashtbl.mem node_slots (Signal.id n)) then begin
                    Hashtbl.replace node_slots (Signal.id n) (fresh ());
                    nodes := n :: !nodes
                  end))
            (roots_of_transition tr))
        (Fsm.transitions fsm))
    all_timed;
  let statements = ref 0 in
  (* Phase-B nets by name: the writer of each net, and the (reader, net)
     pairs read by timed components. *)
  let b_written = Hashtbl.create 32 and b_read = Hashtbl.create 32 in
  let kernels =
    List.map
      (fun (cname, k) ->
        let inputs =
          List.map
            (fun (port, _) ->
              match Hashtbl.find_opt sink_net (cname, port) with
              | Some net ->
                let fmt =
                  match snd nets.(net) with
                  | Some f -> f
                  | None -> Dataflow.Kernel.port_format k port
                in
                (port, net, fmt)
              | None -> unsupported "kernel %s input %s unconnected" cname port)
            k.Dataflow.Kernel.k_inputs
        in
        let outputs =
          List.filter_map
            (fun (port, _) ->
              Option.map
                (fun net ->
                  Hashtbl.replace b_written (fst nets.(net)) cname;
                  (port, net))
                (driver (cname, port)))
            k.Dataflow.Kernel.k_outputs
        in
        { k_name = cname; k_kernel = k; k_inputs = inputs; k_outputs = outputs })
      (Cycle_system.untimed_components sys)
    |> Array.of_list
  in
  let layout_transition cname tr =
    let is_b = classify_nodes (roots_of_transition tr) in
    let emitted = Hashtbl.create 128 in
    let stmts = ref [] in
    let push stmt b =
      incr statements;
      stmts := (stmt, b) :: !stmts
    in
    let node n =
      Signal.fold_dag n ~init:() ~f:(fun () x ->
          if not (Hashtbl.mem emitted (Signal.id x)) then begin
            Hashtbl.add emitted (Signal.id x) ();
            push (Node x) (is_b x);
            match Signal.op x with
            | Signal.Input_read i -> begin
              match Hashtbl.find_opt sink_net (cname, Signal.Input.name i) with
              | Some net -> Hashtbl.replace b_read (cname, fst nets.(net)) ()
              | None ->
                unsupported "input %s.%s is not connected to any net" cname
                  (Signal.Input.name i)
            end
            | Signal.Const _ | Signal.Reg_read _ | Signal.Add _ | Signal.Sub _
            | Signal.Mul _ | Signal.Neg _ | Signal.Abs _ | Signal.And _
            | Signal.Or _ | Signal.Xor _ | Signal.Not _ | Signal.Eq _
            | Signal.Lt _ | Signal.Le _ | Signal.Mux _ | Signal.Resize _
            | Signal.Rom_read _ | Signal.Shift_left _ | Signal.Shift_right _ ->
              ()
          end)
    in
    List.iter
      (fun sfg ->
        List.iter
          (fun (port, e) ->
            node e;
            (* An unconnected output's value falls on the floor. *)
            Option.iter
              (fun net ->
                push (Store { src = e; net }) (is_b e);
                if is_b e then Hashtbl.replace b_written (fst nets.(net)) cname)
              (driver (cname, port)))
          (Sfg.outputs sfg);
        List.iter
          (fun (reg, e) ->
            node e;
            let id = Signal.Reg.id reg in
            let cur = Hashtbl.find reg_cur id and next = Hashtbl.find reg_next id in
            push (Assign { src = e; cur; next }) (is_b e);
            (* Its commit counts as a statement of its own. *)
            incr statements)
          (Sfg.assigns sfg))
      tr.Fsm.t_actions;
    {
      tr_guard = Fsm.guard_expr tr.Fsm.t_guard;
      tr_stmts = Array.of_list (List.rev !stmts);
      tr_goto = Fsm.state_index tr.Fsm.t_goto;
    }
  in
  let comps =
    List.map
      (fun (cname, fsm) ->
        let transitions = Array.of_list (Fsm.transitions fsm) in
        let by_state = Array.make (List.length (Fsm.states fsm)) [] in
        Array.iteri
          (fun i tr ->
            let s = Fsm.state_index tr.Fsm.t_from in
            by_state.(s) <- i :: by_state.(s))
          transitions;
        {
          c_name = cname;
          c_initial = Fsm.state_index (Fsm.initial_state fsm);
          c_by_state = Array.map (fun l -> Array.of_list (List.rev l)) by_state;
          c_transitions = Array.map (layout_transition cname) transitions;
        })
      all_timed
    |> Array.of_list
  in
  let n_comps = Array.length comps in
  let b_order =
    schedule_b_units
      ~names:
        (Array.to_list (Array.map (fun c -> c.c_name) comps)
        @ Array.to_list (Array.map (fun k -> k.k_name) kernels))
      ~b_written ~b_read
      ~kernel_reads:
        (Array.to_list kernels
        |> List.map (fun k ->
               ( k.k_name,
                 List.map (fun (_, net, _) -> fst nets.(net)) k.k_inputs )))
    |> List.map (fun i -> if i < n_comps then Comp i else Kernel (i - n_comps))
    |> Array.of_list
  in
  let stims =
    List.filter_map
      (fun (name, fmt, fn) ->
        Option.map
          (fun net -> { st_name = name; st_fmt = fmt; st_fn = fn; st_net = net })
          (driver (name, "out")))
      (Cycle_system.primary_inputs sys)
  in
  let probes =
    List.filter_map
      (fun pname ->
        Option.map
          (fun net ->
            match snd nets.(net) with
            | Some fmt -> { pr_name = pname; pr_net = net; pr_fmt = fmt }
            | None ->
              unsupported "probe %s net %s has unknown format" pname
                (fst nets.(net)))
          (Hashtbl.find_opt sink_net (pname, "in")))
      (Cycle_system.probes sys)
  in
  let cur r = Hashtbl.find reg_cur (Signal.Reg.id r) in
  {
    slots = max 1 !next_slot;
    nets;
    node_slots;
    nodes = List.rev !nodes;
    reg_cur;
    sink_net;
    reg_inits =
      List.map (fun r -> (Fixed.mantissa (Signal.Reg.init r), cur r)) all_regs;
    comps;
    kernels;
    b_order;
    stims;
    probes;
    regs =
      List.map (fun r -> (Signal.Reg.name r, Signal.Reg.fmt r, cur r)) all_regs;
    statements = !statements;
  }
