exception Netlist_error of string

let error fmt = Format.kasprintf (fun s -> raise (Netlist_error s)) fmt

type net = int

type gate_kind =
  | Buf
  | Not
  | And
  | Or
  | Xor
  | Nand
  | Nor
  | Mux2
  | Const0
  | Const1

type gate = { g_kind : gate_kind; g_inputs : net array; g_out : net }
type dff_rec = { d_init : bool; d_d : net; d_q : net }

type rom_rec = {
  r_name : string;
  r_width : int;
  r_contents : int64 array;
  r_addr : net array;
  r_out : net array;
}

type ram_rec = {
  m_name : string;
  m_words : int;
  m_width : int;
  m_addr : net array;
  m_wdata : net array;
  m_we : net;
  m_out : net array;
}

type t = {
  nl_name : string;
  mutable n_nets : int;
  mutable gates : gate list;  (* reversed *)
  mutable dffs : dff_rec list;
  mutable roms : rom_rec list;
  mutable rams : ram_rec list;
  mutable inputs : (string * net array) list;
  mutable outputs : (string * net array) list;
  mutable driven : (int, unit) Hashtbl.t;
}

let create nl_name =
  {
    nl_name;
    n_nets = 0;
    gates = [];
    dffs = [];
    roms = [];
    rams = [];
    inputs = [];
    outputs = [];
    driven = Hashtbl.create 256;
  }

let name t = t.nl_name

let new_net t =
  let n = t.n_nets in
  t.n_nets <- n + 1;
  n

let mark_driven t n =
  if Hashtbl.mem t.driven n then error "net %d has two drivers" n;
  Hashtbl.replace t.driven n ()

let arity = function
  | Buf | Not -> 1
  | And | Or | Xor | Nand | Nor -> 2
  | Mux2 -> 3
  | Const0 | Const1 -> 0

let gate t kind inputs =
  if List.length inputs <> arity kind then
    error "gate: wrong arity (%d inputs)" (List.length inputs);
  let out = new_net t in
  mark_driven t out;
  t.gates <- { g_kind = kind; g_inputs = Array.of_list inputs; g_out = out } :: t.gates;
  out

let buf_into t ~dst src =
  mark_driven t dst;
  t.gates <- { g_kind = Buf; g_inputs = [| src |]; g_out = dst } :: t.gates

let dff_into t ?(init = false) ~q d =
  mark_driven t q;
  t.dffs <- { d_init = init; d_d = d; d_q = q } :: t.dffs

let gate_into t kind inputs ~dst =
  if List.length inputs <> arity kind then
    error "gate_into: wrong arity (%d inputs)" (List.length inputs);
  mark_driven t dst;
  t.gates <- { g_kind = kind; g_inputs = Array.of_list inputs; g_out = dst } :: t.gates

let dff t ?(init = false) d =
  let q = new_net t in
  mark_driven t q;
  t.dffs <- { d_init = init; d_d = d; d_q = q } :: t.dffs;
  q

let dff_en t ?(init = false) ~enable d =
  (* Recirculating mux: q feeds back when enable is low. *)
  let q = new_net t in
  mark_driven t q;
  let m = gate t Mux2 [ enable; d; q ] in
  t.dffs <- { d_init = init; d_d = m; d_q = q } :: t.dffs;
  q

let rom t ~name ~width ~contents addr =
  if Array.length contents = 0 then error "rom %s: empty" name;
  let out = Array.init width (fun _ -> new_net t) in
  Array.iter (mark_driven t) out;
  t.roms <-
    { r_name = name; r_width = width; r_contents = contents; r_addr = addr;
      r_out = out }
    :: t.roms;
  out

let ram t ~name ~words ~width ~addr ~wdata ~we =
  let out = Array.init width (fun _ -> new_net t) in
  Array.iter (mark_driven t) out;
  t.rams <-
    { m_name = name; m_words = words; m_width = width; m_addr = addr;
      m_wdata = wdata; m_we = we; m_out = out }
    :: t.rams;
  out

let input_bus t name width =
  if List.mem_assoc name t.inputs then error "duplicate input bus %s" name;
  let bus = Array.init width (fun _ -> new_net t) in
  Array.iter (mark_driven t) bus;
  t.inputs <- (name, bus) :: t.inputs;
  bus

let output_bus t name bus =
  if List.mem_assoc name t.outputs then error "duplicate output bus %s" name;
  t.outputs <- (name, bus) :: t.outputs

let const_bus t ~width v =
  Array.init width (fun i ->
      if Int64.logand (Int64.shift_right_logical v i) 1L = 1L then
        gate t Const1 []
      else gate t Const0 [])

let extend_bus t ~signed bus width =
  let w = Array.length bus in
  if width <= w then Array.sub bus 0 width
  else
    let top =
      if signed && w > 0 then bus.(w - 1)
      else gate t Const0 []
    in
    Array.init width (fun i -> if i < w then bus.(i) else top)

type gate_counts = {
  combinational : int;
  flip_flops : int;
  rom_bits : int;
  ram_bits : int;
  gate_equivalents : int;
}

(* NAND2-equivalent weights, the usual back-of-the-envelope factors.
   Buffers are forward-reference wiring artifacts, not logic. *)
let gate_weight = function
  | Buf -> 0
  | Not -> 1
  | And | Or | Nand | Nor -> 1
  | Xor -> 2
  | Mux2 -> 3
  | Const0 | Const1 -> 0

let counts t =
  let combinational = List.length t.gates in
  let flip_flops = List.length t.dffs in
  let rom_bits =
    List.fold_left
      (fun acc r -> acc + (Array.length r.r_contents * r.r_width))
      0 t.roms
  in
  let ram_bits =
    List.fold_left (fun acc m -> acc + (m.m_words * m.m_width)) 0 t.rams
  in
  let comb_eq =
    List.fold_left (fun acc g -> acc + gate_weight g.g_kind) 0 t.gates
  in
  {
    combinational;
    flip_flops;
    rom_bits;
    ram_bits;
    gate_equivalents = comb_eq + (flip_flops * 6) + (rom_bits / 4) + (ram_bits / 2);
  }

let net_count t = t.n_nets

(* Longest acyclic combinational chain (Kahn levelization).  Element =
   gate, ROM read or RAM read; DFF outputs and primary inputs are depth
   0 sources; elements left with nonzero in-degree sit on cycles. *)
let combinational_depth t =
  let elems =
    List.rev_map (fun g -> (Array.to_list g.g_inputs, [ g.g_out ])) t.gates
    @ List.map (fun r -> (Array.to_list r.r_addr, Array.to_list r.r_out)) t.roms
    @ List.map (fun m -> (Array.to_list m.m_addr, Array.to_list m.m_out)) t.rams
    |> Array.of_list
  in
  let n = Array.length elems in
  let producer = Hashtbl.create 256 in
  Array.iteri
    (fun i (_, outs) -> List.iter (fun o -> Hashtbl.replace producer o i) outs)
    elems;
  let succs = Array.make n [] and indeg = Array.make n 0 in
  Array.iteri
    (fun i (ins, _) ->
      List.iter
        (fun net ->
          match Hashtbl.find_opt producer net with
          | Some j ->
            succs.(j) <- i :: succs.(j);
            indeg.(i) <- indeg.(i) + 1
          | None -> () (* dff q, primary input or undriven: a source *))
        ins)
    elems;
  let depth = Array.make n 1 in
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let visited = ref 0 and best = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    incr visited;
    if depth.(i) > !best then best := depth.(i);
    List.iter
      (fun j ->
        if depth.(i) + 1 > depth.(j) then depth.(j) <- depth.(i) + 1;
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then Queue.add j queue)
      succs.(i)
  done;
  (!best, n - !visited)

let fold_gates t ~init ~f =
  List.fold_left
    (fun acc g -> f acc g.g_kind g.g_inputs g.g_out)
    init (List.rev t.gates)

let fold_dffs t ~init ~f =
  List.fold_left
    (fun acc d -> f acc d.d_init ~d:d.d_d ~q:d.d_q)
    init (List.rev t.dffs)

let roms_list t =
  List.rev_map
    (fun r -> (r.r_name, r.r_width, r.r_contents, r.r_addr, r.r_out))
    t.roms

let rams_list t =
  List.rev_map
    (fun m -> (m.m_name, m.m_words, m.m_width, m.m_addr, m.m_wdata, m.m_we, m.m_out))
    t.rams

let inputs_list t = List.rev t.inputs
let outputs_list t = List.rev t.outputs

(* Human-readable label for a single-bit net: its position in a named
   input/output bus when it has one, else the bare index. *)
let label_in_buses buses n =
  List.fold_left
    (fun acc (bname, bus) ->
      match acc with
      | Some _ -> acc
      | None ->
        let rec idx i =
          if i >= Array.length bus then None
          else if bus.(i) = n then Some (Printf.sprintf "%s[%d]" bname i)
          else idx (i + 1)
        in
        idx 0)
    None buses

let net_label t n =
  match label_in_buses t.inputs n with
  | Some s -> s
  | None -> (
    match label_in_buses t.outputs n with
    | Some s -> s
    | None -> Printf.sprintf "n%d" n)

(* Canonical structural hash.  Net indices are creation-order integers
   and every element list is rebuilt in creation order, so two builder
   runs producing the same structure hash identically; the name is
   excluded on purpose — the digest identifies the circuit, not its
   label. *)
let digest t =
  let b = Buffer.create 4096 in
  let net n = Buffer.add_string b (string_of_int n); Buffer.add_char b ',' in
  let bus bus = Array.iter net bus; Buffer.add_char b ';' in
  let kind_tag = function
    | Buf -> 'b' | Not -> 'n' | And -> 'a' | Or -> 'o' | Xor -> 'x'
    | Nand -> 'A' | Nor -> 'O' | Mux2 -> 'm' | Const0 -> '0' | Const1 -> '1'
  in
  Buffer.add_string b "nets:";
  Buffer.add_string b (string_of_int t.n_nets);
  Buffer.add_string b "|gates:";
  List.iter
    (fun g ->
      Buffer.add_char b (kind_tag g.g_kind);
      Array.iter net g.g_inputs;
      net g.g_out)
    (List.rev t.gates);
  Buffer.add_string b "|dffs:";
  List.iter
    (fun d ->
      Buffer.add_char b (if d.d_init then '1' else '0');
      net d.d_d;
      net d.d_q)
    (List.rev t.dffs);
  Buffer.add_string b "|roms:";
  List.iter
    (fun r ->
      Buffer.add_string b r.r_name;
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int r.r_width);
      Array.iter (fun w -> Buffer.add_string b (Int64.to_string w);
                   Buffer.add_char b ',') r.r_contents;
      bus r.r_addr;
      bus r.r_out)
    (List.rev t.roms);
  Buffer.add_string b "|rams:";
  List.iter
    (fun m ->
      Buffer.add_string b m.m_name;
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int m.m_words);
      Buffer.add_char b 'x';
      Buffer.add_string b (string_of_int m.m_width);
      bus m.m_addr;
      bus m.m_wdata;
      net m.m_we;
      bus m.m_out)
    (List.rev t.rams);
  Buffer.add_string b "|inputs:";
  List.iter
    (fun (name, bs) -> Buffer.add_string b name; Buffer.add_char b ':'; bus bs)
    (List.rev t.inputs);
  Buffer.add_string b "|outputs:";
  List.iter
    (fun (name, bs) -> Buffer.add_string b name; Buffer.add_char b ':'; bus bs)
    (List.rev t.outputs);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- stuck-at fault model ------------------------------------------------ *)

type fault_site = Stem of net | Branch of { br_gate : int; br_pin : int }
type fault = { f_site : fault_site; f_stuck : bool }

let gates_in_order t = Array.of_list (List.rev t.gates)

let fault_label t f =
  let v = if f.f_stuck then 1 else 0 in
  match f.f_site with
  | Stem n -> Printf.sprintf "%s/sa%d" (net_label t n) v
  | Branch { br_gate; br_pin } ->
    Printf.sprintf "g%d.in%d/sa%d" br_gate br_pin v

let fault_universe t =
  let gates = gates_in_order t in
  let faults = ref [] in
  let add site stuck = faults := { f_site = site; f_stuck = stuck } :: !faults in
  let both site =
    add site false;
    add site true
  in
  (* Primary inputs and DFF outputs are fanout stems in their own right. *)
  List.iter (fun (_, bus) -> Array.iter (fun n -> both (Stem n)) bus) t.inputs;
  List.iter (fun d -> both (Stem d.d_q)) (List.rev t.dffs);
  Array.iteri
    (fun gi g ->
      (match g.g_kind with
      (* A constant output stuck at its own value is the fault-free
         circuit; only the opposite polarity is a fault. *)
      | Const0 -> add (Stem g.g_out) true
      | Const1 -> add (Stem g.g_out) false
      | _ -> both (Stem g.g_out));
      Array.iteri (fun pin _ -> both (Branch { br_gate = gi; br_pin = pin }))
        g.g_inputs)
    gates;
  List.rev !faults

(* Equivalence-based collapsing: drop pin faults that some stem fault in
   the universe provably dominates-and-is-dominated-by (classic gate
   rules), and fold single-fanout branch faults onto their stem. *)
let collapse_faults t faults =
  let gates = gates_in_order t in
  (* Gate-pin fanout count per net, plus loads that block branch->stem
     folding (macro-cell reads, primary outputs). *)
  let pin_fanout = Hashtbl.create 256 in
  let bump n =
    Hashtbl.replace pin_fanout n
      (1 + Option.value ~default:0 (Hashtbl.find_opt pin_fanout n))
  in
  Array.iter (fun g -> Array.iter bump g.g_inputs) gates;
  List.iter (fun d -> bump d.d_d) t.dffs;
  let observed = Hashtbl.create 64 in
  List.iter (fun r -> Array.iter (fun n -> Hashtbl.replace observed n ()) r.r_addr)
    t.roms;
  List.iter
    (fun m ->
      Array.iter (fun n -> Hashtbl.replace observed n ()) m.m_addr;
      Array.iter (fun n -> Hashtbl.replace observed n ()) m.m_wdata;
      Hashtbl.replace observed m.m_we ())
    t.rams;
  List.iter (fun (_, bus) -> Array.iter (fun n -> Hashtbl.replace observed n ()) bus)
    t.outputs;
  let stems = Hashtbl.create 256 in
  List.iter
    (fun f -> match f.f_site with Stem n -> Hashtbl.replace stems n () | _ -> ())
    faults;
  List.filter
    (fun f ->
      match f.f_site with
      | Stem _ -> true
      | Branch { br_gate; br_pin } -> (
        let g = gates.(br_gate) in
        let src = g.g_inputs.(br_pin) in
        let controlled_equiv =
          (* Pin fault equivalent to an output-stem fault of the same
             gate: controlling input values, and any fault through an
             inverter or buffer. *)
          match g.g_kind, f.f_stuck with
          | (Buf | Not), _ -> true
          | (And | Nand), false -> true
          | (Or | Nor), true -> true
          | _ -> false
        in
        if controlled_equiv then false
        else
          (* Sole load of its stem and not otherwise observed: the
             branch is electrically the stem. *)
          match Hashtbl.find_opt pin_fanout src with
          | Some 1 when (not (Hashtbl.mem observed src)) && Hashtbl.mem stems src
            -> false
          | _ -> true))
    faults

module Sim = struct
  exception Did_not_settle of Ocapi_error.t

  type elem = Gate of gate | Rom_elem of rom_rec | Ram_elem of int * ram_rec

  type t = {
    nl : (string * net array) list * (string * net array) list;  (* in, out *)
    values : bool array;
    elems : elem array;
    fanout : int list array;  (* net -> element indices *)
    dffs : dff_rec array;
    ram_state : int64 array array;  (* per ram, word values *)
    ram_index : ram_rec array;
    queue : int Queue.t;
    queued : bool array;
    name : string;
    settle_budget : int;
    mutable n_evaluations : int;
    mutable n_events : int;
    mutable n_clocks : int;
    (* Active stuck-at fault, if any: a forced net (stem fault) ignores
       all writes; a faulty gate pin (branch fault) reads a constant. *)
    mutable forced_net : net;  (* -1 = none *)
    mutable forced_value : bool;
    mutable fault_elem : int;  (* -1 = none *)
    mutable fault_pin : int;
    mutable fault_pin_value : bool;
  }

  let bus_value values ~signed bus =
    let w = Array.length bus in
    let m = ref 0L in
    for i = 0 to w - 1 do
      if values.(bus.(i)) then m := Int64.logor !m (Int64.shift_left 1L i)
    done;
    if signed && w > 0 && values.(bus.(w - 1)) then
      Int64.sub !m (Int64.shift_left 1L w)
    else !m

  let create ?settle_budget (nl : (* netlist *) _) =
    let nl_record : (* the outer type *) _ = nl in
    let values = Array.make (max 1 nl_record.n_nets) false in
    let rams = Array.of_list (List.rev nl_record.rams) in
    let elems =
      Array.of_list
        (List.rev_map (fun g -> Gate g) nl_record.gates
        @ List.map (fun r -> Rom_elem r) (List.rev nl_record.roms)
        @ List.mapi (fun i r -> Ram_elem (i, r)) (Array.to_list rams))
    in
    let fanout = Array.make (max 1 nl_record.n_nets) [] in
    Array.iteri
      (fun ei e ->
        let ins =
          match e with
          | Gate g -> Array.to_list g.g_inputs
          | Rom_elem r -> Array.to_list r.r_addr
          | Ram_elem (_, r) -> Array.to_list r.m_addr
          (* wdata/we only matter at the clock edge *)
        in
        List.iter (fun n -> fanout.(n) <- ei :: fanout.(n)) ins)
      elems;
    let t =
      {
        nl = (nl_record.inputs, nl_record.outputs);
        values;
        elems;
        fanout;
        dffs = Array.of_list (List.rev nl_record.dffs);
        ram_state = Array.map (fun r -> Array.make r.m_words 0L) rams;
        ram_index = rams;
        queue = Queue.create ();
        queued = Array.make (max 1 (Array.length elems)) false;
        name = nl_record.nl_name;
        settle_budget =
          (match settle_budget with
          | Some b -> b
          | None -> 1000 * max 64 (Array.length elems));
        n_evaluations = 0;
        n_events = 0;
        n_clocks = 0;
        forced_net = -1;
        forced_value = false;
        fault_elem = -1;
        fault_pin = 0;
        fault_pin_value = false;
      }
    in
    (* Initialize DFF outputs and evaluate everything once. *)
    Array.iter (fun d -> values.(d.d_q) <- d.d_init) t.dffs;
    Array.iteri
      (fun i _ ->
        t.queued.(i) <- true;
        Queue.add i t.queue)
      elems;
    t

  let set_net t n v =
    if n <> t.forced_net && t.values.(n) <> v then begin
      t.values.(n) <- v;
      t.n_events <- t.n_events + 1;
      List.iter
        (fun ei ->
          if not t.queued.(ei) then begin
            t.queued.(ei) <- true;
            Queue.add ei t.queue
          end)
        t.fanout.(n)
    end

  let gate_value g v =
    match g.g_kind with
    | Buf -> v 0
    | Not -> not (v 0)
    | And -> v 0 && v 1
    | Or -> v 0 || v 1
    | Xor -> v 0 <> v 1
    | Nand -> not (v 0 && v 1)
    | Nor -> not (v 0 || v 1)
    | Mux2 -> if v 0 then v 1 else v 2
    | Const0 -> false
    | Const1 -> true

  let eval_gate t g =
    let v i = t.values.(g.g_inputs.(i)) in
    set_net t g.g_out (gate_value g v)

  let drive_bus t bus m =
    Array.iteri
      (fun i n ->
        set_net t n (Int64.logand (Int64.shift_right_logical m i) 1L = 1L))
      bus

  let eval_elem t ei =
    t.n_evaluations <- t.n_evaluations + 1;
    match t.elems.(ei) with
    | Gate g ->
      if ei = t.fault_elem then
        let v i =
          if i = t.fault_pin then t.fault_pin_value
          else t.values.(g.g_inputs.(i))
        in
        set_net t g.g_out (gate_value g v)
      else eval_gate t g
    | Rom_elem r ->
      let addr = Int64.to_int (bus_value t.values ~signed:false r.r_addr) in
      let word = r.r_contents.(addr mod Array.length r.r_contents) in
      drive_bus t r.r_out word
    | Ram_elem (ri, r) ->
      let addr = Int64.to_int (bus_value t.values ~signed:false r.m_addr) in
      let word = t.ram_state.(ri).(addr mod r.m_words) in
      drive_bus t r.m_out word

  let settle t =
    let obs = Ocapi_obs.enabled () in
    let evals0 = t.n_evaluations and events0 = t.n_events in
    let t_settle = Ocapi_obs.span_begin () in
    let budget = ref t.settle_budget in
    while not (Queue.is_empty t.queue) do
      decr budget;
      if !budget < 0 then begin
        (* Report the nets still in motion: the output nets of every
           element left on the event queue. *)
        let ins, outs = t.nl in
        let label n =
          match label_in_buses ins n with
          | Some s -> s
          | None -> (
            match label_in_buses outs n with
            | Some s -> s
            | None -> Printf.sprintf "n%d" n)
        in
        let toggling =
          Queue.fold
            (fun acc ei ->
              match t.elems.(ei) with
              | Gate g -> g.g_out :: acc
              | Rom_elem r -> Array.to_list r.r_out @ acc
              | Ram_elem (_, r) -> Array.to_list r.m_out @ acc)
            [] t.queue
          |> List.sort_uniq compare
        in
        let shown = List.filteri (fun i _ -> i < 12) toggling in
        raise
          (Did_not_settle
             (Ocapi_error.make Ocapi_error.Did_not_settle ~engine:"gates"
                ~construct:t.name ~cycle:t.n_clocks
                ~nets:(List.map label shown)
                (Printf.sprintf
                   "netlist %s oscillates: %d nets still toggling after \
                    %d evaluations"
                   t.name (List.length toggling) t.settle_budget)))
      end;
      let ei = Queue.pop t.queue in
      t.queued.(ei) <- false;
      eval_elem t ei
    done;
    if obs then begin
      Ocapi_obs.count "gates.settles";
      Ocapi_obs.count ~n:(t.n_evaluations - evals0) "gates.evaluations";
      Ocapi_obs.count ~n:(t.n_events - events0) "gates.events";
      Ocapi_obs.observe "gates.evals_per_settle"
        (float_of_int (t.n_evaluations - evals0));
      Ocapi_obs.span_end ~cat:"gates" "gates.settle" t_settle
    end

  let set_input t name m =
    let ins, _ = t.nl in
    match List.assoc_opt name ins with
    | Some bus -> drive_bus t bus m
    | None -> raise (Netlist_error (Printf.sprintf "no input bus %s" name))

  let get_output t ~signed name =
    let _, outs = t.nl in
    match List.assoc_opt name outs with
    | Some bus -> bus_value t.values ~signed bus
    | None -> raise (Netlist_error (Printf.sprintf "no output bus %s" name))

  let clock t =
    t.n_clocks <- t.n_clocks + 1;
    if Ocapi_obs.enabled () then Ocapi_obs.count "gates.clocks";
    (* Sample all DFF inputs first, then update, so the edge is atomic. *)
    let sampled = Array.map (fun d -> t.values.(d.d_d)) t.dffs in
    (* RAM writes use the pre-edge address/data. *)
    Array.iteri
      (fun ri r ->
        if t.values.(r.m_we) then begin
          let addr = Int64.to_int (bus_value t.values ~signed:false r.m_addr) in
          let data = bus_value t.values ~signed:false r.m_wdata in
          t.ram_state.(ri).(addr mod r.m_words) <- data
        end)
      t.ram_index;
    Array.iteri (fun i d -> set_net t d.d_q sampled.(i)) t.dffs;
    (* Memory contents changed: re-evaluate RAM reads. *)
    Array.iteri
      (fun ri _ ->
        let ei =
          (* RAM elements sit at the tail of the element array. *)
          Array.length t.elems - Array.length t.ram_index + ri
        in
        if not t.queued.(ei) then begin
          t.queued.(ei) <- true;
          Queue.add ei t.queue
        end)
      t.ram_index;
    settle t

  let reset t =
    Array.fill t.values 0 (Array.length t.values) false;
    Array.iter (fun st -> Array.fill st 0 (Array.length st) 0L) t.ram_state;
    Array.iter (fun d -> t.values.(d.d_q) <- d.d_init) t.dffs;
    Queue.clear t.queue;
    Array.fill t.queued 0 (Array.length t.queued) false;
    Array.iteri
      (fun i _ ->
        t.queued.(i) <- true;
        Queue.add i t.queue)
      t.elems;
    t.n_evaluations <- 0;
    t.n_events <- 0;
    t.n_clocks <- 0

  (* Activate a stuck-at fault.  A stem fault pins a net: its value is
     forced now and every later write is ignored.  A branch fault makes
     one gate read a constant on one input pin.  Inject after {!reset};
     {!clear_fault} before the next reset restores the healthy circuit. *)
  let inject t (f : fault) =
    match f.f_site with
    | Stem n ->
      t.forced_net <- n;
      t.forced_value <- f.f_stuck;
      if t.values.(n) <> f.f_stuck then begin
        t.values.(n) <- f.f_stuck;
        t.n_events <- t.n_events + 1;
        List.iter
          (fun ei ->
            if not t.queued.(ei) then begin
              t.queued.(ei) <- true;
              Queue.add ei t.queue
            end)
          t.fanout.(n)
      end
    | Branch { br_gate; br_pin } ->
      t.fault_elem <- br_gate;
      t.fault_pin <- br_pin;
      t.fault_pin_value <- f.f_stuck;
      if not t.queued.(br_gate) then begin
        t.queued.(br_gate) <- true;
        Queue.add br_gate t.queue
      end

  let clear_fault t =
    t.forced_net <- -1;
    t.fault_elem <- -1

  (* Direct net access for the gate cycle engine's poke surface: a DFF
     q-net write models a transient bit flip (the register re-samples at
     the next edge), a read decodes FSM state bits.  Writes respect an
     active stem fault and propagate through the event queue at the next
     settle. *)
  let net_value t n = t.values.(n)
  let poke_net t n v = set_net t n v

  type stats = { evaluations : int; events : int }

  let stats t = { evaluations = t.n_evaluations; events = t.n_events }
end
