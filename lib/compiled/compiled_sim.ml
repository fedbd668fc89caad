exception Unsupported = Compiled_types.Unsupported

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

(* --- mantissa-level operator builders, specialized at compile time ----- *)

let shl x k = if k = 0 then x else Int64.shift_left x k

let wrap_fn (f : Fixed.format) =
  let w = f.Fixed.width in
  let mask = Int64.sub (Int64.shift_left 1L w) 1L in
  match f.Fixed.signedness with
  | Fixed.Unsigned -> fun m -> Int64.logand m mask
  | Fixed.Signed ->
    let sign_bit = Int64.shift_left 1L (w - 1) in
    let modulus = Int64.shift_left 1L w in
    fun m ->
      let low = Int64.logand m mask in
      if Int64.logand low sign_bit <> 0L then Int64.sub low modulus else low

let sat_fn (f : Fixed.format) =
  let lo = Fixed.min_mantissa f and hi = Fixed.max_mantissa f in
  fun m -> if m < lo then lo else if m > hi then hi else m

let round_fn (mode : Fixed.rounding) k =
  if k = 0 then fun m -> m
  else if k > 62 then fun m -> if m >= 0L then 0L else -1L
  else
    match mode with
    | Fixed.Truncate -> fun m -> Int64.shift_right m k
    | Fixed.Round_nearest ->
      let half = Int64.shift_left 1L (k - 1) in
      fun m -> Int64.shift_right (Int64.add m half) k
    | Fixed.Round_even ->
      let half = Int64.shift_left 1L (k - 1) in
      fun m ->
        let floor = Int64.shift_right m k in
        let rem = Int64.sub m (Int64.shift_left floor k) in
        if rem > half then Int64.add floor 1L
        else if rem < half then floor
        else if Int64.logand floor 1L = 1L then Int64.add floor 1L
        else floor

(* [on_overflow] builds the exception for the pathological huge-shift
   path, letting callers attach component/cycle context; the default
   matches the interpreted engine's [Fixed.resize]. *)
let resize_fn ?on_overflow ~round ~overflow (src : Fixed.format)
    (dst : Fixed.format) =
  let k = src.Fixed.frac - dst.Fixed.frac in
  let ovf =
    match overflow with
    | Fixed.Wrap -> wrap_fn dst
    | Fixed.Saturate -> sat_fn dst
  in
  if k > 0 then
    let rnd = round_fn round k in
    fun m -> ovf (rnd m)
  else if -k > 62 then
    let exn =
      match on_overflow with
      | Some f -> f
      | None ->
        fun () -> Fixed.Overflow "compiled resize: shift too large"
    in
    fun m -> if m = 0L then 0L else raise (exn ())
  else fun m -> ovf (shl m (-k))

let align_shifts = Program_layout.align_shifts

(* --- statement compilation ---------------------------------------------- *)

(* Compile the statement computing node [n] into [values].(slot n).
   [cycle_ref] is read lazily so overflow diagnostics carry the cycle of
   the failing step, not of compilation. *)
let node_statement l (values : int64 array) (cycle_ref : int ref) comp_name n =
  let dst = Program_layout.node_slot l n in
  let s x = Program_layout.node_slot l x in
  let nf = Signal.fmt n in
  let overflow_diag dst_fmt () =
    Ocapi_error.Error
      (Ocapi_error.make Ocapi_error.Overflow ~engine:"compiled"
         ~construct:comp_name ~cycle:!cycle_ref
         (Printf.sprintf "resize to %s: shift too large for nonzero value"
            (Fixed.format_to_string dst_fmt)))
  in
  match Signal.op n with
  | Signal.Const v ->
    let m = Fixed.mantissa v in
    fun () -> values.(dst) <- m
  | Signal.Input_read i ->
    let src =
      Option.get (Program_layout.input_net l ~comp:comp_name (Signal.Input.name i))
    in
    fun () -> values.(dst) <- values.(src)
  | Signal.Reg_read r ->
    let src = Program_layout.reg_slot l r in
    fun () -> values.(dst) <- values.(src)
  | Signal.Add (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let sx = s x and sy = s y in
    fun () -> values.(dst) <- Int64.add (shl values.(sx) ka) (shl values.(sy) kb)
  | Signal.Sub (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let sx = s x and sy = s y in
    fun () -> values.(dst) <- Int64.sub (shl values.(sx) ka) (shl values.(sy) kb)
  | Signal.Mul (x, y) ->
    let sx = s x and sy = s y in
    fun () -> values.(dst) <- Int64.mul values.(sx) values.(sy)
  | Signal.Neg x ->
    let sx = s x in
    fun () -> values.(dst) <- Int64.neg values.(sx)
  | Signal.Abs x ->
    let sx = s x in
    fun () -> values.(dst) <- Int64.abs values.(sx)
  | Signal.And (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let wrap = wrap_fn nf in
    let sx = s x and sy = s y in
    fun () ->
      values.(dst) <- wrap (Int64.logand (shl values.(sx) ka) (shl values.(sy) kb))
  | Signal.Or (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let wrap = wrap_fn nf in
    let sx = s x and sy = s y in
    fun () ->
      values.(dst) <- wrap (Int64.logor (shl values.(sx) ka) (shl values.(sy) kb))
  | Signal.Xor (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let wrap = wrap_fn nf in
    let sx = s x and sy = s y in
    fun () ->
      values.(dst) <- wrap (Int64.logxor (shl values.(sx) ka) (shl values.(sy) kb))
  | Signal.Not x ->
    let wrap = wrap_fn nf in
    let sx = s x in
    fun () -> values.(dst) <- wrap (Int64.lognot values.(sx))
  | Signal.Eq (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let sx = s x and sy = s y in
    fun () ->
      values.(dst) <-
        (if Int64.equal (shl values.(sx) ka) (shl values.(sy) kb) then 1L else 0L)
  | Signal.Lt (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let sx = s x and sy = s y in
    fun () ->
      values.(dst) <- (if shl values.(sx) ka < shl values.(sy) kb then 1L else 0L)
  | Signal.Le (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let sx = s x and sy = s y in
    fun () ->
      values.(dst) <- (if shl values.(sx) ka <= shl values.(sy) kb then 1L else 0L)
  | Signal.Mux (sel, x, y) ->
    let on_overflow = overflow_diag nf in
    let rx =
      resize_fn ~on_overflow ~round:Fixed.Truncate ~overflow:Fixed.Wrap
        (Signal.fmt x) nf
    in
    let ry =
      resize_fn ~on_overflow ~round:Fixed.Truncate ~overflow:Fixed.Wrap
        (Signal.fmt y) nf
    in
    let ss = s sel and sx = s x and sy = s y in
    fun () ->
      values.(dst) <- (if values.(ss) <> 0L then rx values.(sx) else ry values.(sy))
  | Signal.Resize (round, overflow, x) ->
    let rz = resize_fn ~on_overflow:(overflow_diag nf) ~round ~overflow
        (Signal.fmt x) nf
    in
    let sx = s x in
    fun () -> values.(dst) <- rz values.(sx)
  | Signal.Rom_read (r, idx) ->
    let len = Signal.Rom.size r in
    let contents = Array.init len (fun i -> Fixed.mantissa (Signal.Rom.get r i)) in
    let frac = (Signal.fmt idx).Fixed.frac in
    let si = s idx in
    if frac <= 0 then
      fun () ->
        let i = Int64.to_int (shl values.(si) (-frac)) in
        values.(dst) <- contents.(i mod len)
    else
      let div = Int64.shift_left 1L (min frac 62) in
      fun () ->
        let i = Int64.to_int (Int64.div values.(si) div) in
        values.(dst) <- contents.(i mod len)
  | Signal.Shift_left (x, _) | Signal.Shift_right (x, _) ->
    let sx = s x in
    fun () -> values.(dst) <- values.(sx)

(* Compile a pure (register/constant-only) expression to a value closure;
   used for FSM guards, which may not read SFG inputs. *)
let rec compile_pure l (values : int64 array) e : unit -> int64 =
  let nf = Signal.fmt e in
  match Signal.op e with
  | Signal.Const v ->
    let m = Fixed.mantissa v in
    fun () -> m
  | Signal.Input_read i -> unsupported "guard reads input %s" (Signal.Input.name i)
  | Signal.Reg_read r ->
    let src = Program_layout.reg_slot l r in
    fun () -> values.(src)
  | Signal.Add (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let fx = compile_pure l values x and fy = compile_pure l values y in
    fun () -> Int64.add (shl (fx ()) ka) (shl (fy ()) kb)
  | Signal.Sub (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let fx = compile_pure l values x and fy = compile_pure l values y in
    fun () -> Int64.sub (shl (fx ()) ka) (shl (fy ()) kb)
  | Signal.Mul (x, y) ->
    let fx = compile_pure l values x and fy = compile_pure l values y in
    fun () -> Int64.mul (fx ()) (fy ())
  | Signal.Neg x ->
    let fx = compile_pure l values x in
    fun () -> Int64.neg (fx ())
  | Signal.Abs x ->
    let fx = compile_pure l values x in
    fun () -> Int64.abs (fx ())
  | Signal.And (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let wrap = wrap_fn nf in
    let fx = compile_pure l values x and fy = compile_pure l values y in
    fun () -> wrap (Int64.logand (shl (fx ()) ka) (shl (fy ()) kb))
  | Signal.Or (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let wrap = wrap_fn nf in
    let fx = compile_pure l values x and fy = compile_pure l values y in
    fun () -> wrap (Int64.logor (shl (fx ()) ka) (shl (fy ()) kb))
  | Signal.Xor (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let wrap = wrap_fn nf in
    let fx = compile_pure l values x and fy = compile_pure l values y in
    fun () -> wrap (Int64.logxor (shl (fx ()) ka) (shl (fy ()) kb))
  | Signal.Not x ->
    let wrap = wrap_fn nf in
    let fx = compile_pure l values x in
    fun () -> wrap (Int64.lognot (fx ()))
  | Signal.Eq (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let fx = compile_pure l values x and fy = compile_pure l values y in
    fun () -> if Int64.equal (shl (fx ()) ka) (shl (fy ()) kb) then 1L else 0L
  | Signal.Lt (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let fx = compile_pure l values x and fy = compile_pure l values y in
    fun () -> if shl (fx ()) ka < shl (fy ()) kb then 1L else 0L
  | Signal.Le (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let fx = compile_pure l values x and fy = compile_pure l values y in
    fun () -> if shl (fx ()) ka <= shl (fy ()) kb then 1L else 0L
  | Signal.Mux (sel, x, y) ->
    let fs = compile_pure l values sel in
    let rx = resize_fn ~round:Fixed.Truncate ~overflow:Fixed.Wrap (Signal.fmt x) nf in
    let ry = resize_fn ~round:Fixed.Truncate ~overflow:Fixed.Wrap (Signal.fmt y) nf in
    let fx = compile_pure l values x and fy = compile_pure l values y in
    fun () -> if fs () <> 0L then rx (fx ()) else ry (fy ())
  | Signal.Resize (round, overflow, x) ->
    let rz = resize_fn ~round ~overflow (Signal.fmt x) nf in
    let fx = compile_pure l values x in
    fun () -> rz (fx ())
  | Signal.Rom_read (r, idx) ->
    let len = Signal.Rom.size r in
    let contents = Array.init len (fun i -> Fixed.mantissa (Signal.Rom.get r i)) in
    let frac = (Signal.fmt idx).Fixed.frac in
    let fi = compile_pure l values idx in
    if frac <= 0 then fun () -> contents.(Int64.to_int (shl (fi ()) (-frac)) mod len)
    else
      let div = Int64.shift_left 1L (min frac 62) in
      fun () -> contents.(Int64.to_int (Int64.div (fi ()) div) mod len)
  | Signal.Shift_left (x, _) | Signal.Shift_right (x, _) -> compile_pure l values x

(* --- compiled program structures ---------------------------------------- *)

(* Net [i]'s value slot and stamp are both [i] (the layout contract), so
   net-facing records carry one index. *)

type transition_code = {
  tc_block_a : (unit -> unit) array;
  tc_block_b : (unit -> unit) array;
  tc_commit : (unit -> unit) array;
  tc_goto : int;
}

type comp_code = {
  cc_name : string;
  cc_initial : int;
  mutable cc_state : int;
  mutable cc_selected : int;  (* transition index, -1 = none *)
  cc_state_transitions : int array array;  (* per state, priority order *)
  cc_guards : (unit -> bool) array;  (* per transition *)
  cc_transitions : transition_code array;
}

type probe_code = {
  pc_name : string;
  pc_net : int;
  pc_fmt : Fixed.format;
  mutable pc_history : (int * Fixed.t) list;  (* reversed *)
}

(* Optional per-net value recording (waveform dumping from the compiled
   engine): one record per net whose carried format is known. *)
type trace_rec = {
  trc_name : string;
  trc_net : int;
  trc_fmt : Fixed.format;
  mutable trc_hist : (int * Fixed.t) list;  (* reversed *)
}

type t = {
  values : int64 array;
  stamps : int array;
  cycle_ref : int ref;  (* captured by output-store statements *)
  mutable cycle : int;
  comps : comp_code array;
  b_schedule : (int, Program_layout.kernel) Either.t array;
  stims : Program_layout.stim array;
  probes : probe_code array;
  reg_inits : (int64 * int) array;
  (* Register exposure for fault injection: (name, format, cur slot) in
     [Cycle_system.all_regs] order — the same indexing every engine uses. *)
  regs : (string * Fixed.format * int) array;
  n_statements : int;
  mutable tracing : bool;
  trace_recs : trace_rec array;
}

(* --- compilation --------------------------------------------------------- *)

(* Telemetry label for the static operator mix of a flattened program. *)
let op_kind_name n =
  match Signal.op n with
  | Signal.Const _ -> "const"
  | Signal.Input_read _ -> "input_read"
  | Signal.Reg_read _ -> "reg_read"
  | Signal.Add _ -> "add"
  | Signal.Sub _ -> "sub"
  | Signal.Mul _ -> "mul"
  | Signal.Neg _ -> "neg"
  | Signal.Abs _ -> "abs"
  | Signal.And _ -> "and"
  | Signal.Or _ -> "or"
  | Signal.Xor _ -> "xor"
  | Signal.Not _ -> "not"
  | Signal.Eq _ -> "eq"
  | Signal.Lt _ -> "lt"
  | Signal.Le _ -> "le"
  | Signal.Mux _ -> "mux"
  | Signal.Resize _ -> "resize"
  | Signal.Rom_read _ -> "rom_read"
  | Signal.Shift_left _ -> "shift_left"
  | Signal.Shift_right _ -> "shift_right"

let compile sys =
  let t_compile = Ocapi_obs.span_begin () in
  let l = Program_layout.of_system sys in
  if Ocapi_obs.enabled () then
    List.iter
      (fun n -> Ocapi_obs.count ("compiled.ops." ^ op_kind_name n))
      l.Program_layout.nodes;
  let values = Array.make l.Program_layout.slots 0L in
  let stamps = Array.make (max 1 (Array.length l.Program_layout.nets)) (-1) in
  let cycle_ref = ref 0 in
  let reg_inits = Array.of_list l.Program_layout.reg_inits in
  Array.iter (fun (init, cur) -> values.(cur) <- init) reg_inits;
  let statement cname = function
    | Program_layout.Node n -> node_statement l values cycle_ref cname n
    | Program_layout.Store { src; net } ->
      let src = Program_layout.node_slot l src in
      fun () ->
        values.(net) <- values.(src);
        stamps.(net) <- !cycle_ref
    | Program_layout.Assign { src; next; _ } ->
      let src = Program_layout.node_slot l src in
      fun () -> values.(next) <- values.(src)
  in
  let compile_transition cname (tr : Program_layout.transition) =
    let block b =
      Array.to_list tr.tr_stmts
      |> List.filter_map (fun (s, in_b) ->
             if in_b = b then Some (statement cname s) else None)
      |> Array.of_list
    in
    {
      tc_block_a = block false;
      tc_block_b = block true;
      tc_commit =
        Array.to_list tr.tr_stmts
        |> List.filter_map (function
             | Program_layout.Assign { cur; next; _ }, _ ->
               Some (fun () -> values.(cur) <- values.(next))
             | (Program_layout.Node _ | Program_layout.Store _), _ -> None)
        |> Array.of_list;
      tc_goto = tr.tr_goto;
    }
  in
  let comps =
    Array.map
      (fun (c : Program_layout.comp) ->
        {
          cc_name = c.c_name;
          cc_initial = c.c_initial;
          cc_state = c.c_initial;
          cc_selected = -1;
          cc_state_transitions = c.c_by_state;
          cc_guards =
            Array.map
              (fun (tr : Program_layout.transition) ->
                let f = compile_pure l values tr.tr_guard in
                fun () -> f () <> 0L)
              c.c_transitions;
          cc_transitions = Array.map (compile_transition c.c_name) c.c_transitions;
        })
      l.Program_layout.comps
  in
  let b_schedule =
    Array.map
      (function
        | Program_layout.Comp i -> Either.Left i
        | Program_layout.Kernel j -> Either.Right l.Program_layout.kernels.(j))
      l.Program_layout.b_order
  in
  let probes =
    List.map
      (fun (p : Program_layout.probe) ->
        {
          pc_name = p.pr_name;
          pc_net = p.pr_net;
          pc_fmt = p.pr_fmt;
          pc_history = [];
        })
      l.Program_layout.probes
    |> Array.of_list
  in
  let trace_recs =
    Array.to_list l.Program_layout.nets
    |> List.mapi (fun net (name, fmt) ->
           Option.map
             (fun fmt ->
               { trc_name = name; trc_net = net; trc_fmt = fmt; trc_hist = [] })
             fmt)
    |> List.filter_map Fun.id |> Array.of_list
  in
  let n_statements = l.Program_layout.statements in
  let t =
    {
      values;
      stamps;
      cycle_ref;
      cycle = 0;
      comps;
      b_schedule;
      stims = Array.of_list l.Program_layout.stims;
      probes;
      reg_inits;
      regs = Array.of_list l.Program_layout.regs;
      n_statements;
      tracing = false;
      trace_recs;
    }
  in
  if Ocapi_obs.enabled () then begin
    Ocapi_obs.set_gauge "compiled.slots" (float_of_int l.Program_layout.slots);
    Ocapi_obs.set_gauge "compiled.statements" (float_of_int n_statements)
  end;
  Ocapi_obs.span_end ~cat:"compiled"
    ~args:
      [
        ("slots", Ocapi_obs.Json.Int l.Program_layout.slots);
        ("statements", Ocapi_obs.Json.Int n_statements);
      ]
    "compiled.compile" t_compile;
  t

(* --- execution ------------------------------------------------------------ *)

let step t =
  let t_step = Ocapi_obs.span_begin () in
  t.cycle_ref := t.cycle;
  Array.iter
    (fun st ->
      match st.Program_layout.st_fn t.cycle with
      | Some v ->
        t.values.(st.st_net) <- Fixed.mantissa v;
        t.stamps.(st.st_net) <- t.cycle
      | None -> ())
    t.stims;
  Array.iter
    (fun c ->
      c.cc_selected <- -1;
      let candidates = c.cc_state_transitions.(c.cc_state) in
      try
        Array.iter
          (fun ti ->
            if c.cc_guards.(ti) () then begin
              c.cc_selected <- ti;
              raise Exit
            end)
          candidates
      with Exit -> ())
    t.comps;
  Array.iter
    (fun c ->
      if c.cc_selected >= 0 then
        Array.iter (fun s -> s ()) c.cc_transitions.(c.cc_selected).tc_block_a)
    t.comps;
  Array.iter
    (fun unit_ ->
      match unit_ with
      | Either.Left i ->
        let c = t.comps.(i) in
        if c.cc_selected >= 0 then
          Array.iter (fun s -> s ()) c.cc_transitions.(c.cc_selected).tc_block_b
      | Either.Right kc ->
        if kc.Program_layout.k_kernel.Dataflow.Kernel.k_ready () then begin
          if Ocapi_obs.enabled () then Ocapi_obs.count "compiled.kernel_firings";
          let consumed =
            List.map
              (fun (port, net, fmt) ->
                (port, [ Fixed.create fmt t.values.(net) ]))
              kc.k_inputs
          in
          let produced = kc.Program_layout.k_kernel.Dataflow.Kernel.k_behavior consumed in
          List.iter
            (fun (port, net) ->
              match List.assoc_opt port produced with
              | Some [ v ] ->
                t.values.(net) <- Fixed.mantissa v;
                t.stamps.(net) <- t.cycle
              | Some _ | None -> ())
            kc.k_outputs
        end)
    t.b_schedule;
  Array.iter
    (fun unit_ ->
      match unit_ with
      | Either.Left _ -> ()
      | Either.Right kc ->
        if kc.Program_layout.k_kernel.Dataflow.Kernel.k_ready () then
          kc.Program_layout.k_kernel.Dataflow.Kernel.k_commit ())
    t.b_schedule;
  Array.iter
    (fun p ->
      if t.stamps.(p.pc_net) = t.cycle then
        p.pc_history <-
          (t.cycle, Fixed.create p.pc_fmt t.values.(p.pc_net)) :: p.pc_history)
    t.probes;
  if t.tracing then
    Array.iter
      (fun r ->
        if t.stamps.(r.trc_net) = t.cycle then
          r.trc_hist <-
            (t.cycle, Fixed.create r.trc_fmt t.values.(r.trc_net)) :: r.trc_hist)
      t.trace_recs;
  Array.iter
    (fun c ->
      if c.cc_selected >= 0 then begin
        let tc = c.cc_transitions.(c.cc_selected) in
        Array.iter (fun s -> s ()) tc.tc_commit;
        c.cc_state <- tc.tc_goto
      end)
    t.comps;
  if Ocapi_obs.enabled () then begin
    Ocapi_obs.count "compiled.steps";
    let a = ref 0 and b = ref 0 and commits = ref 0 and fired = ref 0 in
    Array.iter
      (fun c ->
        if c.cc_selected >= 0 then begin
          let tc = c.cc_transitions.(c.cc_selected) in
          incr fired;
          a := !a + Array.length tc.tc_block_a;
          b := !b + Array.length tc.tc_block_b;
          commits := !commits + Array.length tc.tc_commit
        end)
      t.comps;
    Ocapi_obs.count ~n:!fired "compiled.transitions_fired";
    Ocapi_obs.count ~n:!a "compiled.stmts.block_a";
    Ocapi_obs.count ~n:!b "compiled.stmts.block_b";
    Ocapi_obs.count ~n:!commits "compiled.stmts.commit"
  end;
  t.cycle <- t.cycle + 1;
  Ocapi_obs.span_end ~cat:"compiled" "compiled.step" t_step

let run t n =
  for _ = 1 to n do
    step t
  done

let current_cycle t = t.cycle

let output_history t name =
  match Array.find_opt (fun p -> p.pc_name = name) t.probes with
  | Some p -> List.rev p.pc_history
  | None -> unsupported "output_history: no probe %s" name

let reset t =
  t.cycle <- 0;
  t.cycle_ref := 0;
  Array.fill t.stamps 0 (Array.length t.stamps) (-1);
  Array.iter (fun (init, cur) -> t.values.(cur) <- init) t.reg_inits;
  Array.iter
    (fun c ->
      c.cc_state <- c.cc_initial;
      c.cc_selected <- -1)
    t.comps;
  Array.iter (fun p -> p.pc_history <- []) t.probes;
  Array.iter (fun r -> r.trc_hist <- []) t.trace_recs;
  Array.iter
    (fun unit_ ->
      match unit_ with
      | Either.Left _ -> ()
      | Either.Right kc -> kc.Program_layout.k_kernel.Dataflow.Kernel.k_reset ())
    t.b_schedule

let trace_all t = t.tracing <- true

let traced_histories t =
  Array.to_list t.trace_recs
  |> List.map (fun r -> (r.trc_name, r.trc_fmt, List.rev r.trc_hist))

let slot_count t = Array.length t.values
let statement_count t = t.n_statements

(* --- fault-injection access ---------------------------------------------- *)

let register_count t = Array.length t.regs

let register_info t i =
  let name, f, _ = t.regs.(i) in
  (name, f)

let flip_register_bit t i ~bit =
  let name, f, slot = t.regs.(i) in
  if bit < 0 || bit >= f.Fixed.width then
    invalid_arg
      (Printf.sprintf "flip_register_bit: bit %d outside %s for register %s"
         bit (Fixed.format_to_string f) name);
  let flipped = Int64.logxor t.values.(slot) (Int64.shift_left 1L bit) in
  t.values.(slot) <- wrap_fn f flipped

let component_count t = Array.length t.comps

let component_info t i =
  let c = t.comps.(i) in
  (c.cc_name, Array.length c.cc_state_transitions)

let component_state t i = t.comps.(i).cc_state

let set_component_state t i s =
  let c = t.comps.(i) in
  let n = Array.length c.cc_state_transitions in
  if s < 0 || s >= n then
    raise
      (Ocapi_error.Error
         (Ocapi_error.make Ocapi_error.Invalid_state ~engine:"compiled"
            ~construct:c.cc_name ~cycle:t.cycle
            (Printf.sprintf "FSM driven into unencoded state %d (%d states)"
               s n)));
  c.cc_state <- s

let emit_ocaml sys ~cycles = Emit.emit_ocaml sys ~cycles
