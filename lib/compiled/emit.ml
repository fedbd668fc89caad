(* OCaml source emission for the compiled simulator (fig 7: "a C++
   description can be regenerated to yield an application-specific and
   optimized compiled code simulator").  The program is the one
   [Program_layout] computes for [Compiled_sim]; this module renders it
   as text, in two shapes that share every line but the first and the
   last few:

   - {!emit_plugin}: a library-shaped module for the native engine.  It
     registers step/reset closures and its raw state arrays through
     [Ocapi_native_abi]; stimuli, probes and fault pokes stay on the
     host side of the ABI.

   - {!emit_ocaml}: a standalone program depending only on the standard
     library, with recorded stimuli embedded as literals and a loop
     that prints one line per probe token, so its behaviour can be
     diffed against the in-process engines.

   When the width-bound analysis ({!word_mode_ok}) proves every
   intermediate mantissa fits an unboxed 63-bit [int], the text is
   rendered over native [int] words ([Word] mode); otherwise over
   [int64] cells ([I64] mode), semantically identical to the in-process
   compiled engine on any width. *)

let unsupported fmt =
  Format.kasprintf (fun s -> raise (Compiled_types.Unsupported s)) fmt

(* Bumped whenever the emitted plugin text, the slot-layout contract or
   the [Ocapi_native_abi] record shape changes incompatibly; folded into
   the .cmxs cache key so stale artifacts are never paired with a newer
   host. *)
let emitter_version = 2

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    (String.lowercase_ascii name)

(* ROM tables, named in the order the rendering first reads them. *)
type roms = {
  mutable rom_list : (string * int64 array) list;  (* emitted name, contents *)
  rom_names : (string, string) Hashtbl.t;  (* rom name -> emitted name *)
}

let rom_var roms r =
  let name = Signal.Rom.name r in
  match Hashtbl.find_opt roms.rom_names name with
  | Some v -> v
  | None ->
    let v =
      Printf.sprintf "rom_%s_%d" (sanitize name) (List.length roms.rom_list)
    in
    let contents =
      Array.init (Signal.Rom.size r) (fun i ->
          Fixed.mantissa (Signal.Rom.get r i))
    in
    roms.rom_list <- (v, contents) :: roms.rom_list;
    Hashtbl.replace roms.rom_names name v;
    v

(* --- expression text ----------------------------------------------------- *)

(* [I64] renders over [int64] cells (the standalone simulator and the
   boxed plugin); [Word] renders over unboxed [int] words and is only
   valid when {!word_mode_ok} proved the bounds. *)
type mode = I64 | Word

let align_shifts = Program_layout.align_shifts

let lit mode m =
  match mode with
  | I64 -> Printf.sprintf "(%LdL)" m
  | Word -> Printf.sprintf "(%Ld)" m

let zero mode = match mode with I64 -> "0L" | Word -> "0"
let one mode = match mode with I64 -> "1L" | Word -> "1"

let shl_txt mode x k =
  if k = 0 then x
  else
    match mode with
    | I64 -> Printf.sprintf "(shl %s %d)" x k
    | Word -> Printf.sprintf "(%s lsl %d)" x k

let bin_txt mode op64 opw x y =
  match mode with
  | I64 -> Printf.sprintf "(%s %s %s)" op64 x y
  | Word -> Printf.sprintf "(%s %s %s)" x opw y

let wrap_txt (f : Fixed.format) x =
  match f.Fixed.signedness with
  | Fixed.Unsigned -> Printf.sprintf "(wrap_u %d %s)" f.Fixed.width x
  | Fixed.Signed -> Printf.sprintf "(wrap_s %d %s)" f.Fixed.width x

let sat_txt mode (f : Fixed.format) x =
  Printf.sprintf "(sat %s %s %s)"
    (lit mode (Fixed.min_mantissa f))
    (lit mode (Fixed.max_mantissa f))
    x

let round_txt mode rnd k x =
  if k = 0 then x
  else if k > 62 then
    Printf.sprintf "(if %s >= %s then %s else %s)" x (zero mode) (zero mode)
      (match mode with I64 -> "-1L" | Word -> "(-1)")
  else
    match rnd with
    | Fixed.Truncate -> begin
      match mode with
      | I64 -> Printf.sprintf "(Int64.shift_right %s %d)" x k
      | Word -> Printf.sprintf "(%s asr %d)" x k
    end
    | Fixed.Round_nearest -> Printf.sprintf "(rnd_near %d %s)" k x
    | Fixed.Round_even -> Printf.sprintf "(rnd_even %d %s)" k x

let resize_txt mode ?(ctx = "guard") ~round ~overflow (src : Fixed.format)
    (dst : Fixed.format) x =
  let k = src.Fixed.frac - dst.Fixed.frac in
  let ovf v =
    match overflow with
    | Fixed.Wrap -> wrap_txt dst v
    | Fixed.Saturate -> sat_txt mode dst v
  in
  if k > 0 then ovf (round_txt mode round k x)
  else if -k > 62 then
    (* Same semantics as Fixed.resize / the in-process compiled engine:
       zero passes, a nonzero mantissa raises a structured overflow
       carrying the construct, target format and failing cycle. *)
    Printf.sprintf "(if %s = %s then %s else overflow_error %S)" x (zero mode)
      (zero mode)
      (Printf.sprintf "%s: resize to %s: shift too large for nonzero value"
         ctx
         (Fixed.format_to_string dst))
  else ovf (shl_txt mode x (-k))

(* Text of the expression for node [n].  With [~comp:(Some cname)] this
   is a statement-level node whose children are referenced through their
   slots; with [comp = None] it is a pure guard rendered by inline
   recursion (guards cannot read inputs). *)
let rec expr_text mode l roms ?comp n =
  let s x =
    match comp with
    | Some _ -> Printf.sprintf "v.(%d)" (Program_layout.node_slot l x)
    | None -> expr_text mode l roms x
  in
  let ctx = match comp with Some c -> c | None -> "guard" in
  let nf = Signal.fmt n in
  match Signal.op n with
  | Signal.Const v -> lit mode (Fixed.mantissa v)
  | Signal.Input_read i -> begin
    match comp with
    | None -> unsupported "emit: guard reads input %s" (Signal.Input.name i)
    | Some cname ->
      Printf.sprintf "v.(%d)"
        (Option.get
           (Program_layout.input_net l ~comp:cname (Signal.Input.name i)))
  end
  | Signal.Reg_read r -> Printf.sprintf "v.(%d)" (Program_layout.reg_slot l r)
  | Signal.Add (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    bin_txt mode "Int64.add" "+" (shl_txt mode (s x) ka) (shl_txt mode (s y) kb)
  | Signal.Sub (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    bin_txt mode "Int64.sub" "-" (shl_txt mode (s x) ka) (shl_txt mode (s y) kb)
  | Signal.Mul (x, y) -> bin_txt mode "Int64.mul" "*" (s x) (s y)
  | Signal.Neg x -> begin
    match mode with
    | I64 -> Printf.sprintf "(Int64.neg %s)" (s x)
    | Word -> Printf.sprintf "(- %s)" (s x)
  end
  | Signal.Abs x -> begin
    match mode with
    | I64 -> Printf.sprintf "(Int64.abs %s)" (s x)
    | Word -> Printf.sprintf "(abs %s)" (s x)
  end
  | Signal.And (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    wrap_txt nf
      (bin_txt mode "Int64.logand" "land" (shl_txt mode (s x) ka)
         (shl_txt mode (s y) kb))
  | Signal.Or (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    wrap_txt nf
      (bin_txt mode "Int64.logor" "lor" (shl_txt mode (s x) ka)
         (shl_txt mode (s y) kb))
  | Signal.Xor (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    wrap_txt nf
      (bin_txt mode "Int64.logxor" "lxor" (shl_txt mode (s x) ka)
         (shl_txt mode (s y) kb))
  | Signal.Not x -> begin
    match mode with
    | I64 -> wrap_txt nf (Printf.sprintf "(Int64.lognot %s)" (s x))
    | Word -> wrap_txt nf (Printf.sprintf "(lnot %s)" (s x))
  end
  | Signal.Eq (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    Printf.sprintf "(if %s = %s then %s else %s)" (shl_txt mode (s x) ka)
      (shl_txt mode (s y) kb) (one mode) (zero mode)
  | Signal.Lt (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    Printf.sprintf "(if %s < %s then %s else %s)" (shl_txt mode (s x) ka)
      (shl_txt mode (s y) kb) (one mode) (zero mode)
  | Signal.Le (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    Printf.sprintf "(if %s <= %s then %s else %s)" (shl_txt mode (s x) ka)
      (shl_txt mode (s y) kb) (one mode) (zero mode)
  | Signal.Mux (sel, x, y) ->
    let rx =
      resize_txt mode ~ctx ~round:Fixed.Truncate ~overflow:Fixed.Wrap
        (Signal.fmt x) nf (s x)
    in
    let ry =
      resize_txt mode ~ctx ~round:Fixed.Truncate ~overflow:Fixed.Wrap
        (Signal.fmt y) nf (s y)
    in
    Printf.sprintf "(if %s <> %s then %s else %s)" (s sel) (zero mode) rx ry
  | Signal.Resize (round, overflow, x) ->
    resize_txt mode ~ctx ~round ~overflow (Signal.fmt x) nf (s x)
  | Signal.Rom_read (r, idx) ->
    let var = rom_var roms r in
    let len = Signal.Rom.size r in
    let frac = (Signal.fmt idx).Fixed.frac in
    if frac <= 0 then
      match mode with
      | I64 ->
        Printf.sprintf "%s.(Int64.to_int %s mod %d)" var
          (shl_txt mode (s idx) (-frac))
          len
      | Word ->
        Printf.sprintf "%s.(%s mod %d)" var (shl_txt mode (s idx) (-frac)) len
    else begin
      match mode with
      | I64 ->
        Printf.sprintf "%s.(Int64.to_int (Int64.div %s %LdL) mod %d)" var
          (s idx)
          (Int64.shift_left 1L (min frac 62))
          len
      | Word ->
        Printf.sprintf "%s.((%s / (1 lsl %d)) mod %d)" var (s idx)
          (min frac 62) len
    end
  | Signal.Shift_left (x, _) | Signal.Shift_right (x, _) -> s x

(* --- width-bound analysis (Word-mode safety) ----------------------------- *)

(* A conservative static fixpoint over magnitude bounds: [bits b] means
   every value the node can carry satisfies |v| < 2^b.  OCaml's native
   [int] is 63 bits (62 magnitude bits + sign), so Word mode is safe iff
   every node — including shifted operands and rounding intermediates —
   stays within 62 magnitude bits, and every format width fed to a
   wrap/saturate helper (which computes [1 lsl width]) is at most 61.
   Registers hold raw (unwrapped) committed expression values, so their
   bounds come from the same fixpoint, seeded with the initial value. *)

exception Too_wide

let value_limit = 62
let width_limit = 61

let bits_of_int64 m =
  let neg = Int64.compare m 0L < 0 in
  let m = if neg then Int64.neg m else m in
  if Int64.compare m 0L < 0 then 63 (* Int64.min_int *)
  else begin
    let b = ref 0 in
    while !b < 63 && Int64.compare (Int64.shift_left 1L !b) m <= 0 do
      incr b
    done;
    !b
  end

let checked b = if b > value_limit then raise Too_wide else b

let checked_width (f : Fixed.format) =
  if f.Fixed.width > width_limit then raise Too_wide else f.Fixed.width

let rec bound_expr l memo net_bits reg_bits comp n =
  match Hashtbl.find_opt memo (Signal.id n) with
  | Some b -> b
  | None ->
    let bx x = bound_expr l memo net_bits reg_bits comp x in
    let nf = Signal.fmt n in
    let resize_bound ~round ~overflow (src : Fixed.format)
        (dst : Fixed.format) b =
      let k = src.Fixed.frac - dst.Fixed.frac in
      ignore overflow;
      if k > 62 then 1
      else if k > 0 then begin
        (match round with
        | Fixed.Truncate -> ()
        | Fixed.Round_nearest | Fixed.Round_even ->
          ignore (checked (max b (k - 1) + 1)));
        checked_width dst
      end
      else if -k > 62 then 1
      else begin
        ignore (checked (b + -k));
        checked_width dst
      end
    in
    let bits tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
    let b =
      match Signal.op n with
      | Signal.Const v -> bits_of_int64 (Fixed.mantissa v)
      | Signal.Input_read i -> begin
        match Program_layout.input_net l ~comp (Signal.Input.name i) with
        | Some net -> bits net_bits net
        | None -> 0
      end
      | Signal.Reg_read r -> bits reg_bits (Program_layout.reg_slot l r)
      | Signal.Add (x, y) | Signal.Sub (x, y) ->
        let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
        let bx' = checked (bx x + ka) and by' = checked (bx y + kb) in
        max bx' by' + 1
      | Signal.Mul (x, y) -> bx x + bx y
      | Signal.Neg x | Signal.Abs x -> bx x
      | Signal.And (x, y) | Signal.Or (x, y) | Signal.Xor (x, y) ->
        let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
        ignore (checked (bx x + ka));
        ignore (checked (bx y + kb));
        checked_width nf
      | Signal.Not x ->
        ignore (checked (bx x + 1));
        checked_width nf
      | Signal.Eq (x, y) | Signal.Lt (x, y) | Signal.Le (x, y) ->
        let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
        ignore (checked (bx x + ka));
        ignore (checked (bx y + kb));
        1
      | Signal.Mux (sel, x, y) ->
        ignore (bx sel);
        let rx =
          resize_bound ~round:Fixed.Truncate ~overflow:Fixed.Wrap
            (Signal.fmt x) nf (bx x)
        in
        let ry =
          resize_bound ~round:Fixed.Truncate ~overflow:Fixed.Wrap
            (Signal.fmt y) nf (bx y)
        in
        max rx ry
      | Signal.Resize (round, overflow, x) ->
        resize_bound ~round ~overflow (Signal.fmt x) nf (bx x)
      | Signal.Rom_read (r, idx) ->
        let bidx = bx idx in
        let frac = (Signal.fmt idx).Fixed.frac in
        if frac <= 0 then ignore (checked (bidx + -frac))
        else if frac > width_limit then raise Too_wide;
        let m = ref 0 in
        for i = 0 to Signal.Rom.size r - 1 do
          m := max !m (bits_of_int64 (Fixed.mantissa (Signal.Rom.get r i)))
        done;
        !m
      | Signal.Shift_left (x, _) | Signal.Shift_right (x, _) -> bx x
    in
    let b = checked b in
    Hashtbl.replace memo (Signal.id n) b;
    b

(* [word_mode_ok l] decides whether Word-mode emission is exact for the
   layout [l].  Monotone relaxation over per-net / per-register bounds
   (keyed by net and by current-value slot); any bound exceeding the
   62-bit magnitude limit (or any wrap width above 61) rejects.
   Termination: bounds only grow and are capped. *)
let word_mode_ok (l : Program_layout.t) =
  try
    let net_bits : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let reg_bits : (int, int) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (st : Program_layout.stim) ->
        Hashtbl.replace net_bits st.st_net (checked_width st.st_fmt))
      l.stims;
    Array.iter
      (fun (k : Program_layout.kernel) ->
        List.iter
          (fun (port, net) ->
            Hashtbl.replace net_bits net
              (checked_width (Dataflow.Kernel.port_format k.k_kernel port)))
          k.k_outputs)
      l.kernels;
    List.iter
      (fun (init, cur) ->
        Hashtbl.replace reg_bits cur (checked (bits_of_int64 init)))
      l.reg_inits;
    let relax tbl key b =
      let old = match Hashtbl.find_opt tbl key with Some o -> o | None -> 0 in
      if b > old then begin
        Hashtbl.replace tbl key b;
        true
      end
      else false
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun (c : Program_layout.comp) ->
          Array.iter
            (fun (tr : Program_layout.transition) ->
              let memo = Hashtbl.create 256 in
              let bound n = bound_expr l memo net_bits reg_bits c.c_name n in
              ignore (bound tr.tr_guard);
              Array.iter
                (fun (stmt, _) ->
                  match stmt with
                  | Program_layout.Node n -> ignore (bound n)
                  | Program_layout.Store { src; net } ->
                    if relax net_bits net (bound src) then changed := true
                  | Program_layout.Assign { src; cur; _ } ->
                    if relax reg_bits cur (bound src) then changed := true)
                tr.tr_stmts)
            c.c_transitions)
        l.comps
    done;
    (* Inlined RAM models compute [Fixed.to_int] of the address and a
       truncate/wrap resize of the write data in plugin code; both may
       shift left, so their intermediates must obey the same magnitude
       limit as every other node. *)
    Array.iter
      (fun (k : Program_layout.kernel) ->
        match k.k_kernel.Dataflow.Kernel.k_model with
        | Some (Dataflow.Kernel.Ram_model { data_fmt; addr_port; wdata_port; _ })
          ->
          ignore (checked_width data_fmt);
          let input_net_bits port =
            List.find_map
              (fun (p, net, fmt) ->
                if String.equal p port then
                  Some
                    (fmt, Option.value ~default:0 (Hashtbl.find_opt net_bits net))
                else None)
              k.k_inputs
          in
          (match input_net_bits addr_port with
          | Some (f, b) when f.Fixed.frac < 0 ->
            ignore (checked (b + -f.Fixed.frac))
          | _ -> ());
          (match input_net_bits wdata_port with
          | Some (f, b) ->
            let shift = data_fmt.Fixed.frac - f.Fixed.frac in
            if shift > 0 then ignore (checked (b + shift))
          | None -> ())
        | _ -> ())
      l.kernels;
    true
  with Too_wide -> false

(* --- per-component rendering ---------------------------------------------- *)

type comp_text = {
  ct_cid : string;  (* sanitized identifier *)
  ct_index : int;  (* index into the FSM-state array *)
  ct_select : string;
  ct_block_a : string;
  ct_block_b : string;
  ct_commit : string;
  ct_initial : int;
}

(* Renders one match arm set per component.  FSM states live in a shared
   [states : int array] (indexed by component order), so the native host
   can read and force them through the ABI. *)
let build_comp_texts mode (l : Program_layout.t) roms =
  Array.to_list l.comps
  |> List.mapi (fun ci (c : Program_layout.comp) ->
         let block_a = Buffer.create 1024
         and block_b = Buffer.create 1024
         and commits = Buffer.create 256 in
         let ba fmt = Printf.ksprintf (Buffer.add_string block_a) fmt in
         let bb fmt = Printf.ksprintf (Buffer.add_string block_b) fmt in
         let bc fmt = Printf.ksprintf (Buffer.add_string commits) fmt in
         let slot = Program_layout.node_slot l in
         Array.iteri
           (fun ti (tr : Program_layout.transition) ->
             let a_stmts = ref [] and b_stmts = ref [] and c_stmts = ref [] in
             Array.iter
               (fun (stmt, in_b) ->
                 let txt =
                   match stmt with
                   | Program_layout.Node x ->
                     Printf.sprintf "v.(%d) <- %s" (slot x)
                       (expr_text mode l roms ~comp:c.c_name x)
                   | Program_layout.Store { src; net } ->
                     Printf.sprintf "v.(%d) <- v.(%d); stamp.(%d) <- !cycle" net
                       (slot src) net
                   | Program_layout.Assign { src; cur; next } ->
                     c_stmts :=
                       Printf.sprintf "v.(%d) <- v.(%d)" cur next :: !c_stmts;
                     Printf.sprintf "v.(%d) <- v.(%d)" next (slot src)
                 in
                 if in_b then b_stmts := txt :: !b_stmts
                 else a_stmts := txt :: !a_stmts)
               tr.tr_stmts;
             let body stmts =
               match List.rev stmts with
               | [] -> "()"
               | l -> String.concat ";\n      " l
             in
             ba "    | %d ->\n      %s\n" ti (body !a_stmts);
             bb "    | %d ->\n      %s\n" ti (body !b_stmts);
             bc "    | %d ->\n      %s;\n      states.(%d) <- %d\n" ti
               (body !c_stmts) ci tr.tr_goto)
           c.c_transitions;
         (* Guard selection per state, in priority order. *)
         let sel = Buffer.create 512 in
         let bs fmt = Printf.ksprintf (Buffer.add_string sel) fmt in
         Array.iteri
           (fun s transitions ->
             bs "    | %d ->\n" s;
             let chain =
               Array.fold_right
                 (fun i rest ->
                   Printf.sprintf "if %s <> %s then %d else %s"
                     (expr_text mode l roms c.c_transitions.(i).tr_guard)
                     (zero mode) i rest)
                 transitions "(-1)"
             in
             bs "      %s\n" chain)
           c.c_by_state;
         {
           ct_cid = sanitize c.c_name;
           ct_index = ci;
           ct_select = Buffer.contents sel;
           ct_block_a = Buffer.contents block_a;
           ct_block_b = Buffer.contents block_b;
           ct_commit = Buffer.contents commits;
           ct_initial = c.c_initial;
         })

(* Shared text fragments: mode helpers, ROMs, register initialization. *)

let emit_helpers buf mode =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  match mode with
  | I64 ->
    pf "let shl x k = if k = 0 then x else Int64.shift_left x k\n";
    pf "let wrap_u w x = Int64.logand x (Int64.sub (Int64.shift_left 1L w) 1L)\n";
    pf "let wrap_s w x =\n";
    pf "  let m = Int64.logand x (Int64.sub (Int64.shift_left 1L w) 1L) in\n";
    pf "  if Int64.logand m (Int64.shift_left 1L (w - 1)) <> 0L then\n";
    pf "    Int64.sub m (Int64.shift_left 1L w) else m\n";
    pf "let sat lo hi x = if x < lo then lo else if x > hi then hi else x\n";
    pf "let rnd_near k x = Int64.shift_right (Int64.add x (Int64.shift_left 1L (k-1))) k\n";
    pf "let rnd_even k x =\n";
    pf "  let f = Int64.shift_right x k in\n";
    pf "  let r = Int64.sub x (Int64.shift_left f k) in\n";
    pf "  let h = Int64.shift_left 1L (k-1) in\n";
    pf "  if r > h then Int64.add f 1L else if r < h then f\n";
    pf "  else if Int64.logand f 1L = 1L then Int64.add f 1L else f\n";
    pf "let _ = shl 0L 0, wrap_u 1 0L, wrap_s 1 0L, sat 0L 0L 0L, rnd_near 1 0L, rnd_even 1 0L\n";
    pf "let _ = overflow_error\n\n"
  | Word ->
    pf "let wrap_u w x = x land ((1 lsl w) - 1)\n";
    pf "let wrap_s w x =\n";
    pf "  let m = x land ((1 lsl w) - 1) in\n";
    pf "  if m land (1 lsl (w - 1)) <> 0 then m - (1 lsl w) else m\n";
    pf "let sat lo hi x = if x < lo then lo else if x > hi then hi else x\n";
    pf "let rnd_near k x = (x + (1 lsl (k - 1))) asr k\n";
    pf "let rnd_even k x =\n";
    pf "  let f = x asr k in\n";
    pf "  let r = x - (f lsl k) in\n";
    pf "  let h = 1 lsl (k - 1) in\n";
    pf "  if r > h then f + 1 else if r < h then f\n";
    pf "  else if f land 1 = 1 then f + 1 else f\n";
    pf "let _ = wrap_u 1 0, wrap_s 1 0, sat 0 0 0, rnd_near 1 0, rnd_even 1 0\n";
    pf "let _ = overflow_error\n\n"

let emit_roms buf mode roms =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (var, contents) ->
      pf "let %s = [|" var;
      Array.iter (fun m -> pf " %s;" (lit mode m)) contents;
      pf " |]\n")
    (List.rev roms.rom_list)

let emit_comp_funs buf comp_texts =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun ct ->
      pf "let sel_%s = ref (-1)\n" ct.ct_cid;
      pf "let select_%s () =\n  sel_%s := (match states.(%d) with\n%s    | _ -> (-1))\n"
        ct.ct_cid ct.ct_cid ct.ct_index ct.ct_select;
      pf "let block_a_%s () =\n  (match !sel_%s with\n%s    | _ -> ())\n"
        ct.ct_cid ct.ct_cid ct.ct_block_a;
      pf "let block_b_%s () =\n  (match !sel_%s with\n%s    | _ -> ())\n"
        ct.ct_cid ct.ct_cid ct.ct_block_b;
      pf "let commit_%s () =\n  (match !sel_%s with\n%s    | _ -> ())\n\n"
        ct.ct_cid ct.ct_cid ct.ct_commit)
    comp_texts

(* --- untimed kernels --------------------------------------------------------- *)

(* An untimed kernel carrying a {!Dataflow.Kernel.model} is inlined
   into the emitted text instead of crossing the host boundary:
   per-firing token boxing through the closure interface is the
   dominant cycle cost of RAM-heavy designs (the DECT transceiver drives
   seven RAM cells every cycle), and the model pins down bit-exact
   semantics the generated code can reproduce directly. *)
type ram_info = {
  ri_id : int;  (* per-program RAM ordinal, for identifier naming *)
  ri_words : int;
  ri_data_fmt : Fixed.format;
  ri_addr_slot : int;
  ri_addr_fmt : Fixed.format;
  ri_wdata_slot : int;
  ri_wdata_fmt : Fixed.format;
  ri_we_slot : int;
  ri_rdata : int option;  (* read-data net; None if unconnected *)
}

(* [Fixed.to_int] of the address value, rendered over the mode's cells.
   Word mode is exact because {!word_mode_ok} checked the left-shift
   bound for negative fractions, and a positive fraction >= 62 divides
   a sub-2^62 magnitude to zero exactly as [Int64.div] does. *)
let ram_to_int_txt mode ri =
  let f = ri.ri_addr_fmt.Fixed.frac in
  match mode with
  | Word ->
    if f = 0 then Printf.sprintf "v.(%d)" ri.ri_addr_slot
    else if f < 0 then Printf.sprintf "(v.(%d) lsl %d)" ri.ri_addr_slot (-f)
    else if f > 61 then "0"
    else Printf.sprintf "(v.(%d) / (1 lsl %d))" ri.ri_addr_slot f
  | I64 ->
    if f = 0 then Printf.sprintf "(Int64.to_int v.(%d))" ri.ri_addr_slot
    else if f < 0 then
      Printf.sprintf "(Int64.to_int (Int64.shift_left v.(%d) %d))"
        ri.ri_addr_slot (-f)
    else
      Printf.sprintf
        "(Int64.to_int (Int64.div v.(%d) (Int64.shift_left 1L %d)))"
        ri.ri_addr_slot (min f 62)

(* The firing of Ram_model, as in Ram_cell.kernel: produce the
   pre-write word at the wrapped address, stage the resized write when
   the enable is true (the commit section applies it). *)
let ram_fire_lines mode ri =
  let i = ri.ri_id in
  [
    Printf.sprintf "(let a_ = %s mod %d in" (ram_to_int_txt mode ri)
      ri.ri_words;
    Printf.sprintf " let a_ = if a_ < 0 then a_ + %d else a_ in" ri.ri_words;
  ]
  @ (match ri.ri_rdata with
    | Some net ->
      [
        Printf.sprintf " v.(%d) <- ram_%d.(a_);" net i;
        Printf.sprintf " stamp.(%d) <- !cycle;" net;
      ]
    | None -> [])
  @ [
      Printf.sprintf " if v.(%d) <> %s then begin" ri.ri_we_slot (zero mode);
      Printf.sprintf "   ram_%d_pa := a_;" i;
      Printf.sprintf "   ram_%d_pv := %s" i
        (resize_txt mode ~ctx:"ram" ~round:Fixed.Truncate ~overflow:Fixed.Wrap
           ri.ri_wdata_fmt ri.ri_data_fmt
           (Printf.sprintf "v.(%d)" ri.ri_wdata_slot));
      " end";
      Printf.sprintf " else ram_%d_pa := (-1));" i;
    ]

(* Partition the kernels: those carrying an inlinable declarative model
   run entirely inside the emitted code; the rest keep crossing the host
   boundary through the plugin's closure arrays.  Host indices count the
   surviving kernels only, so [pm_kernels] and the closure arrays stay
   index-aligned. *)
let kernel_units (l : Program_layout.t) =
  let next_ram = ref 0 and next_host = ref 0 in
  Array.map
    (fun (k : Program_layout.kernel) ->
      let host () =
        let hj = !next_host in
        incr next_host;
        `Host (hj, k)
      in
      match k.k_kernel.Dataflow.Kernel.k_model with
      | Some
          (Dataflow.Kernel.Ram_model
             { words; data_fmt; addr_port; wdata_port; we_port; rdata_port })
        -> (
        let inp p = List.find_opt (fun (q, _, _) -> String.equal q p) k.k_inputs in
        match (inp addr_port, inp wdata_port, inp we_port) with
        | Some (_, aslot, afmt), Some (_, wslot, wfmt), Some (_, eslot, _) ->
          let ri =
            {
              ri_id = !next_ram;
              ri_words = words;
              ri_data_fmt = data_fmt;
              ri_addr_slot = aslot;
              ri_addr_fmt = afmt;
              ri_wdata_slot = wslot;
              ri_wdata_fmt = wfmt;
              ri_we_slot = eslot;
              ri_rdata = List.assoc_opt rdata_port k.k_outputs;
            }
          in
          incr next_ram;
          `Inline ri
        | _ -> host ())
      | _ -> host ())
    l.kernels

(* --- rendering --------------------------------------------------------------- *)

(* What the native host needs to wire a loaded plugin to the design:
   slot/stamp indices for stimuli and probes, register and FSM
   inventories, kernel port wiring.  Read off the same layout the plugin
   text was rendered from; plain data, so it can be marshalled into a
   sidecar next to a cached .cmxs. *)
type plugin_meta = {
  pm_version : int;
  pm_packed : bool;  (* Word mode (true) or boxed int64 mode *)
  pm_slots : int;
  pm_stamp_count : int;
  pm_statements : int;
  pm_stims : (string * int * int) list;  (* input name, slot, stamp *)
  pm_probes : (string * int * int * Fixed.format) list;
      (* probe name, slot, stamp, carried format *)
  pm_regs : (string * Fixed.format * int) list;
      (* register name, declared format, current-value slot;
         in Cycle_system.all_regs order *)
  pm_comps : (string * int) list;  (* timed component name, state count *)
  pm_kernels :
    (string
    * (string * int * Fixed.format) list  (* input port, slot, format *)
    * (string * int * int) list)  (* output port, slot, stamp *)
    list;  (* in Cycle_system.untimed_components order *)
}

(* The two shapes differ only in the head (how an overflow is raised)
   and the tail (ABI registration, or embedded stimuli and a printing
   main loop). *)
type shape = Plugin | Standalone of int  (* cycles *)

let render shape sys (l : Program_layout.t) =
  let mode = if word_mode_ok l then Word else I64 in
  let roms = { rom_list = []; rom_names = Hashtbl.create 8 } in
  let comp_texts = build_comp_texts mode l roms in
  let kunits = kernel_units l in
  let rams =
    Array.to_list kunits
    |> List.filter_map (function `Inline ri -> Some ri | `Host _ -> None)
  in
  let host_kernels =
    Array.to_list kunits
    |> List.filter_map (function `Host (_, k) -> Some k | `Inline _ -> None)
  in
  (match (shape, host_kernels) with
  | Standalone _, (k : Program_layout.kernel) :: _ ->
    unsupported
      "emit_ocaml: untimed kernel %s has no inlinable model, so it cannot be \
       embedded in source"
      k.k_name
  | (Standalone _ | Plugin), _ -> ());
  let n_stamps = max 1 (Array.length l.nets) in
  let buf = Buffer.create 65536 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match shape with
  | Plugin ->
    pf "(* Generated by ocapi-ml: native simulator plugin for system %S. *)\n"
      (Cycle_system.name sys);
    pf "(* Emitter v%d, %s value store; loaded via Dynlink, driven through\n"
      emitter_version
      (match mode with Word -> "unboxed int" | I64 -> "int64");
    pf "   the Ocapi_native_abi handoff record. *)\n\n"
  | Standalone cycles ->
    pf "(* Generated by ocapi-ml: compiled simulator for system %S. *)\n"
      (Cycle_system.name sys);
    pf "(* %d cycles of embedded stimuli; prints \"<cycle> <probe> <mantissa>\". *)\n\n"
      cycles);
  (match mode with
  | Word -> pf "let v = Array.make %d 0\n" l.slots
  | I64 -> pf "let v = Array.make %d 0L\n" l.slots);
  pf "let stamp = Array.make %d (-1)\n" n_stamps;
  pf "let cycle = ref 0\n";
  (match shape with
  | Plugin ->
    pf "let overflow_error what =\n";
    pf "  raise (Ocapi_native_abi.Native_overflow\n";
    pf "           (Printf.sprintf \"%%s (cycle %%d)\" what !cycle))\n"
  | Standalone _ ->
    pf "exception Overflow of string\n";
    pf "let overflow_error what =\n";
    pf "  raise (Overflow (Printf.sprintf \"compiled/%%s (cycle %%d)\" what !cycle))\n");
  emit_helpers buf mode;
  emit_roms buf mode roms;
  (* Inlined RAM stores: backing array + single staged write (pa < 0
     means nothing staged), mirroring Ram_cell's [pending] ref. *)
  List.iter
    (fun ri ->
      pf "let ram_%d = Array.make %d %s\n" ri.ri_id ri.ri_words (zero mode);
      pf "let ram_%d_pa = ref (-1)\n" ri.ri_id;
      pf "let ram_%d_pv = ref %s\n" ri.ri_id (zero mode))
    rams;
  if rams <> [] then pf "\n";
  List.iter
    (fun ri ->
      pf "let commit_ram_%d () =\n" ri.ri_id;
      pf "  if !ram_%d_pa >= 0 then begin\n" ri.ri_id;
      pf "    ram_%d.(!ram_%d_pa) <- !ram_%d_pv;\n" ri.ri_id ri.ri_id ri.ri_id;
      pf "    ram_%d_pa := (-1)\n" ri.ri_id;
      pf "  end\n\n")
    rams;
  if shape = Plugin then begin
    let n_kernels = List.length host_kernels in
    pf "let kernels : (unit -> unit) array = Array.make %d (fun () -> ())\n"
      n_kernels;
    pf "let kernel_commits : (unit -> unit) array = Array.make %d (fun () -> ())\n\n"
      n_kernels
  end;
  (* Register initial values in reverse [all_regs] order.  Any order
     is correct; this one keeps the emitted text stable. *)
  let reg_inits = List.rev l.reg_inits in
  let reg_init_lines () =
    List.iter
      (fun (init, cur) -> pf "  v.(%d) <- %s;\n" cur (lit mode init))
      reg_inits
  in
  pf "let () = (* register initial values *)\n";
  reg_init_lines ();
  pf "  ()\n\n";
  pf "let states : int array = [|";
  List.iter (fun ct -> pf " %d;" ct.ct_initial) comp_texts;
  pf " |]\n";
  emit_comp_funs buf comp_texts;
  pf "let step () =\n";
  List.iter (fun ct -> pf "  select_%s ();\n" ct.ct_cid) comp_texts;
  List.iter (fun ct -> pf "  block_a_%s ();\n" ct.ct_cid) comp_texts;
  let comp_arr = Array.of_list comp_texts in
  Array.iter
    (function
      | Program_layout.Comp i -> pf "  block_b_%s ();\n" comp_arr.(i).ct_cid
      | Program_layout.Kernel j -> (
        match kunits.(j) with
        | `Inline ri ->
          List.iter (fun line -> pf "  %s\n" line) (ram_fire_lines mode ri)
        | `Host (hj, _) -> pf "  kernels.(%d) ();\n" hj))
    l.b_order;
  Array.iter
    (function
      | Program_layout.Comp _ -> ()
      | Program_layout.Kernel j -> (
        match kunits.(j) with
        | `Inline ri -> pf "  commit_ram_%d ();\n" ri.ri_id
        | `Host (hj, _) -> pf "  kernel_commits.(%d) ();\n" hj))
    l.b_order;
  List.iter (fun ct -> pf "  commit_%s ();\n" ct.ct_cid) comp_texts;
  pf "  incr cycle\n\n";
  (match shape with
  | Plugin ->
    pf "let reset () =\n";
    pf "  cycle := 0;\n";
    pf "  Array.fill stamp 0 %d (-1);\n" n_stamps;
    reg_init_lines ();
    List.iter
      (fun ct ->
        pf "  states.(%d) <- %d;\n" ct.ct_index ct.ct_initial;
        pf "  sel_%s := (-1);\n" ct.ct_cid)
      comp_texts;
    List.iter
      (fun ri ->
        pf "  Array.fill ram_%d 0 %d %s;\n" ri.ri_id ri.ri_words (zero mode);
        pf "  ram_%d_pa := (-1);\n" ri.ri_id)
      rams;
    pf "  ()\n\n";
    pf "let () =\n";
    pf "  Ocapi_native_abi.register\n";
    pf "    {\n";
    (match mode with
    | Word -> pf "      Ocapi_native_abi.p_values = Ocapi_native_abi.Words v;\n"
    | I64 -> pf "      Ocapi_native_abi.p_values = Ocapi_native_abi.Boxed v;\n");
    pf "      p_stamps = stamp;\n";
    pf "      p_cycle = cycle;\n";
    pf "      p_states = states;\n";
    pf "      p_kernels = kernels;\n";
    pf "      p_kernel_commits = kernel_commits;\n";
    pf "      p_step = step;\n";
    pf "      p_reset = reset;\n";
    pf "    }\n"
  | Standalone cycles ->
    (* Stimuli are evaluated now and must be total over the run. *)
    List.iteri
      (fun i (st : Program_layout.stim) ->
        pf "let stim_%d = [| (* %s *)" i st.st_name;
        for c = 0 to cycles - 1 do
          match st.st_fn c with
          | Some v -> pf " %s;" (lit mode (Fixed.mantissa v))
          | None ->
            unsupported "emit_ocaml: stimulus %s produced no token at cycle %d"
              st.st_name c
        done;
        pf " |]\n")
      l.stims;
    pf "\nlet () =\n";
    pf "  for c = 0 to %d do\n" (cycles - 1);
    List.iteri
      (fun i (st : Program_layout.stim) ->
        pf "    v.(%d) <- stim_%d.(c); stamp.(%d) <- c;\n" st.st_net i st.st_net)
      l.stims;
    pf "    step ();\n";
    List.iter
      (fun (p : Program_layout.probe) ->
        pf "    if stamp.(%d) = c then Printf.printf \"%%d %s %s\\n\" c v.(%d);\n"
          p.pr_net p.pr_name
          (match mode with Word -> "%d" | I64 -> "%Ld")
          p.pr_net)
      l.probes;
    pf "  done\n");
  ( Buffer.contents buf,
    {
      pm_version = emitter_version;
      pm_packed = (mode = Word);
      pm_slots = l.slots;
      pm_stamp_count = n_stamps;
      pm_statements = l.statements;
      pm_stims =
        List.map
          (fun (st : Program_layout.stim) -> (st.st_name, st.st_net, st.st_net))
          l.stims;
      pm_probes =
        List.map
          (fun (p : Program_layout.probe) ->
            (p.pr_name, p.pr_net, p.pr_net, p.pr_fmt))
          l.probes;
      pm_regs = l.regs;
      pm_comps =
        Array.to_list l.comps
        |> List.map (fun (c : Program_layout.comp) ->
               (c.c_name, Array.length c.c_by_state));
      pm_kernels =
        List.map
          (fun (k : Program_layout.kernel) ->
            ( k.k_name,
              k.k_inputs,
              List.map (fun (port, net) -> (port, net, net)) k.k_outputs ))
          host_kernels;
    } )

let emit_plugin sys = render Plugin sys (Program_layout.of_system sys)

let emit_ocaml sys ~cycles =
  fst (render (Standalone cycles) sys (Program_layout.of_system sys))
