(* Equivalence tests across the simulation engines: interpreted
   three-phase scheduler, compiled closure program, event-driven RTL —
   plus the emitted standalone OCaml simulator. *)

let s8 = Fixed.signed ~width:8 ~frac:0
let clk = Clock.default

(* A two-component system with both combinational flow-through and
   registered state, plus a ROM. *)
let rich_system seed =
  let table =
    Signal.Rom.create (Printf.sprintf "rich_rom_%d" seed) s8
      (Array.init 16 (fun i -> Fixed.of_int s8 ((i * 7 mod 21) - 10)))
  in
  let acc = Signal.Reg.create clk (Printf.sprintf "rich_acc_%d" seed) s8 in
  let phase = Signal.Reg.create clk (Printf.sprintf "rich_ph_%d" seed) Fixed.bit_format in
  let front =
    Sfg.build "front_active" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        let idx =
          Signal.resize (Fixed.unsigned ~width:4 ~frac:0)
            Signal.(x &: consti s8 15)
        in
        let v = Signal.(rom table idx +: reg_q acc) in
        Sfg.Builder.output b "mid" (Signal.resize ~overflow:Fixed.Saturate s8 v);
        Sfg.Builder.assign_resized b acc Signal.(x -: reg_q acc);
        Sfg.Builder.assign b phase Signal.(~:(reg_q phase)))
  in
  let front_alt =
    Sfg.build "front_idle" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        Sfg.Builder.output b "mid"
          (Signal.resize s8 Signal.(x +: consti s8 1));
        Sfg.Builder.assign b phase Signal.(~:(reg_q phase)))
  in
  let f1 = Fsm.create "front_ctl" in
  let a = Fsm.initial f1 "a" and b = Fsm.state f1 "b" in
  Fsm.(a |-- cnd (Signal.reg_q phase) |+ front_alt |-> b);
  Fsm.(a |-- always |+ front |-> a);
  Fsm.(b |-- always |+ front |-> a);
  let acc2 = Signal.Reg.create clk (Printf.sprintf "rich_acc2_%d" seed) s8 in
  let back =
    Sfg.build "back_step" (fun b ->
        let m = Sfg.Builder.input b "m" s8 in
        let v = Signal.(m *: consti s8 3) in
        Sfg.Builder.output b "y"
          (Signal.resize ~round:Fixed.Round_nearest ~overflow:Fixed.Saturate s8
             (Signal.shift_right v 1));
        Sfg.Builder.assign_resized b acc2 Signal.(m +: reg_q acc2);
        Sfg.Builder.output b "state" (Signal.resize s8 (Signal.reg_q acc2)))
  in
  let f2 = Fsm.create "back_ctl" in
  let s0 = Fsm.initial f2 "s0" in
  Fsm.(s0 |-- always |+ back |-> s0);
  let sys = Cycle_system.create (Printf.sprintf "rich_%d" seed) in
  let c1 = Cycle_system.add_timed sys "front" f1 in
  let c2 = Cycle_system.add_timed sys "back" f2 in
  let rng = Random.State.make [| seed |] in
  let stimuli = Array.init 64 (fun _ -> Fixed.of_int s8 (Random.State.int rng 200 - 100)) in
  let stim =
    Cycle_system.add_input sys "x_in" s8 (fun c -> Some stimuli.(c mod 64))
  in
  let p_y = Cycle_system.add_output sys "y_out" in
  let p_state = Cycle_system.add_output sys "state_out" in
  ignore (Cycle_system.connect sys (stim, "out") [ (c1, "x") ]);
  ignore (Cycle_system.connect sys (c1, "mid") [ (c2, "m") ]);
  ignore (Cycle_system.connect sys (c2, "y") [ (p_y, "in") ]);
  ignore (Cycle_system.connect sys (c2, "state") [ (p_state, "in") ]);
  sys

let histories_equal h1 h2 =
  List.length h1 = List.length h2
  && List.for_all2
       (fun (p1, l1) (p2, l2) ->
         p1 = p2
         && List.length l1 = List.length l2
         && List.for_all2
              (fun (c1, v1) (c2, v2) -> c1 = c2 && Fixed.equal v1 v2)
              l1 l2)
       h1 h2

let test_compiled_equivalence () =
  for seed = 1 to 5 do
    let sys = rich_system seed in
    let interp = Flow.simulate sys ~cycles:50 in
    let compiled = Flow.simulate ~engine:"compiled" sys ~cycles:50 in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d" seed)
      true
      (histories_equal interp compiled)
  done

let test_rtl_equivalence () =
  for seed = 6 to 9 do
    let sys = rich_system seed in
    let interp = Flow.simulate sys ~cycles:40 in
    let rtl = Flow.simulate ~engine:"rtl" sys ~cycles:40 in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d" seed)
      true (histories_equal interp rtl)
  done

let test_engines_agree_helper () =
  let sys = rich_system 42 in
  Alcotest.(check (list string)) "no disagreement" []
    (Flow.engines_agree sys ~cycles:40)

let test_compiled_reset () =
  let sys = rich_system 77 in
  Cycle_system.reset sys;
  let prog = Compiled_sim.compile sys in
  Compiled_sim.run prog 30;
  let first = Compiled_sim.output_history prog "y_out" in
  Compiled_sim.reset prog;
  Compiled_sim.run prog 30;
  let second = Compiled_sim.output_history prog "y_out" in
  Alcotest.(check bool) "reset reproduces" true
    (List.for_all2
       (fun (c1, v1) (c2, v2) -> c1 = c2 && Fixed.equal v1 v2)
       first second);
  Alcotest.(check bool) "has slots" true (Compiled_sim.slot_count prog > 10);
  Alcotest.(check bool) "has statements" true
    (Compiled_sim.statement_count prog > 10)

let test_compiled_rejects_component_cycle () =
  (* Combinational component cycle at the static schedule's granularity. *)
  let mk name =
    let sfg =
      Sfg.build (name ^ "_f") (fun b ->
          let x = Sfg.Builder.input b "x" s8 in
          Sfg.Builder.output b "y" (Signal.resize s8 Signal.(x +: consti s8 1)))
    in
    let fsm = Fsm.create (name ^ "_c") in
    let s0 = Fsm.initial fsm "s0" in
    Fsm.(s0 |-- always |+ sfg |-> s0);
    fsm
  in
  let sys = Cycle_system.create "cycle_reject" in
  let a = Cycle_system.add_timed sys "ca" (mk "ca") in
  let b = Cycle_system.add_timed sys "cb" (mk "cb") in
  ignore (Cycle_system.connect sys (a, "y") [ (b, "x") ]);
  ignore (Cycle_system.connect sys (b, "y") [ (a, "x") ]);
  match Compiled_sim.compile sys with
  | exception Compiled_sim.Unsupported _ -> ()
  | _ -> Alcotest.fail "component cycle accepted"

let test_rtl_stats_and_size () =
  let sys = rich_system 13 in
  Cycle_system.reset sys;
  let rtl = Rtl.of_system sys in
  Rtl.reset rtl;
  Rtl.run rtl 20;
  let st = Rtl.stats rtl in
  Alcotest.(check bool) "deltas happened" true (st.Rtl.deltas > 20);
  Alcotest.(check bool) "events happened" true (st.Rtl.events > 20);
  Alcotest.(check bool) "activations happened" true (st.Rtl.activations > 20);
  Alcotest.(check bool) "signals exist" true (Rtl.signal_count rtl > 5);
  Alcotest.(check bool) "processes exist" true (Rtl.process_count rtl >= 4);
  Cycle_system.reset sys

(* The emitted standalone simulator compiles with ocamlfind/ocamlopt and
   prints exactly the probe stream of the in-process engines.  Skipped
   when no compiler is on PATH (the toolchain-less CI job runs the
   suite that way on purpose: only the dynlinking native engine has a
   fallback ladder — this test has nothing to degrade to). *)
let compiler_on_path () =
  Sys.command "command -v ocamlfind >/dev/null 2>&1 || command -v ocamlopt >/dev/null 2>&1"
  = 0

(* [check_emitted_simulator sys ~cycles] compiles the standalone
   simulator of [sys] and checks that it prints exactly the interpreted
   probe stream. *)
let check_emitted_simulator sys ~cycles =
  if not (compiler_on_path ()) then Alcotest.skip ();
  let interp = Flow.simulate sys ~cycles in
  Cycle_system.reset sys;
  let src = Compiled_sim.emit_ocaml sys ~cycles in
  let dir = Filename.temp_dir "ocapi_test" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  let ml = Filename.concat dir "sim.ml" in
  let oc = open_out ml in
  output_string oc src;
  close_out oc;
  let exe = Filename.concat dir "sim.exe" in
  let rc =
    Sys.command
      (Printf.sprintf "ocamlfind ocamlopt -package unix %s -o %s >/dev/null 2>&1 || ocamlopt %s -o %s >/dev/null 2>&1"
         ml exe ml exe)
  in
  if rc <> 0 then Alcotest.fail "emitted simulator failed to compile";
  let ic = Unix.open_process_in exe in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  ignore (Unix.close_process_in ic);
  let lines = List.rev !lines in
  (* Build the expected line set from the interpreted histories. *)
  let expected =
    List.concat_map
      (fun (p, hist) ->
        List.map
          (fun (c, v) -> Printf.sprintf "%d %s %Ld" c p (Fixed.mantissa v))
          hist)
      interp
    |> List.sort compare
  in
  Alcotest.(check bool) "probe stream non-empty" true (expected <> []);
  Alcotest.(check (list string)) "emitted output matches" expected
    (List.sort compare lines)

let test_emitted_simulator_end_to_end () =
  check_emitted_simulator (rich_system 21) ~cycles:25

(* The accumulator CPU's data memory is a RAM cell, an untimed kernel:
   the standalone simulator inlines the cell's declared model. *)
let test_emitted_simulator_ram () =
  check_emitted_simulator
    (Acc_cpu.create ~io_stimulus:(Acc_cpu.io_stimulus ()) ()).Acc_cpu.system
    ~cycles:120

(* A kernel without a declared model is an opaque closure: the plugin
   calls back into the host for it, the standalone program cannot. *)
let test_emitted_simulator_rejects_opaque_kernel () =
  let kernel =
    Dataflow.Kernel.create "double"
      ~formats:[ ("in", s8); ("out", s8) ]
      ~inputs:[ ("in", 1) ] ~outputs:[ ("out", 1) ]
      (fun consumed ->
        let v = List.hd (List.assoc "in" consumed) in
        [ ("out", [ Fixed.resize s8 (Fixed.add v v) ]) ])
  in
  let sys = Cycle_system.create "opaque_kernel" in
  let k = Cycle_system.add_untimed sys kernel in
  let src =
    Cycle_system.add_input sys "x" s8 (fun c -> Some (Fixed.of_int s8 (c mod 7)))
  in
  let p = Cycle_system.add_output sys "y" in
  ignore (Cycle_system.connect sys (src, "out") [ (k, "in") ]);
  ignore (Cycle_system.connect sys (k, "out") [ (p, "in") ]);
  let _, meta = Emit.emit_plugin sys in
  Alcotest.(check int) "plugin keeps the kernel on the host" 1
    (List.length meta.Emit.pm_kernels);
  match Compiled_sim.emit_ocaml sys ~cycles:4 with
  | exception Compiled_sim.Unsupported _ -> ()
  | _ -> Alcotest.fail "opaque kernel embedded in standalone source"

let suite =
  [
    Alcotest.test_case "compiled == interpreted (5 seeds)" `Quick
      test_compiled_equivalence;
    Alcotest.test_case "rtl == interpreted (4 seeds)" `Quick test_rtl_equivalence;
    Alcotest.test_case "engines_agree helper" `Quick test_engines_agree_helper;
    Alcotest.test_case "compiled reset reproduces" `Quick test_compiled_reset;
    Alcotest.test_case "compiled rejects component cycles" `Quick
      test_compiled_rejects_component_cycle;
    Alcotest.test_case "rtl stats and size" `Quick test_rtl_stats_and_size;
    Alcotest.test_case "emitted simulator end-to-end" `Slow
      test_emitted_simulator_end_to_end;
    Alcotest.test_case "emitted simulator end-to-end: ACC CPU (RAM cell)" `Slow
      test_emitted_simulator_ram;
    Alcotest.test_case "emitted simulator rejects opaque kernels" `Quick
      test_emitted_simulator_rejects_opaque_kernel;
  ]

(* Property: randomized expression DAGs (mux/logic/resize-heavy, with
   shared subexpressions) behave identically under the interpreted and
   compiled engines.  This guards the block-A/B classification logic:
   a short-circuit bug there once put input-dependent nodes in the
   token-production block, reading stale values. *)
let random_system_property =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 1_000_000 in
      return seed)
  in
  let arb = QCheck.make ~print:string_of_int gen in
  QCheck.Test.make ~name:"random DAG: compiled == interpreted" ~count:60 arb
    (fun seed ->
      let rng = Random.State.make [| seed; 0xabcd |] in
      let fresh = Printf.sprintf "rnd%d_%d" seed in
      let inputs =
        Array.init 2 (fun i ->
            Signal.Input.create
              (Printf.sprintf "in%d" i)
              (Fixed.signed ~width:6 ~frac:2))
      in
      let regs =
        Array.init 2 (fun i ->
            Signal.Reg.create clk (fresh i) (Fixed.signed ~width:6 ~frac:2))
      in
      let expr =
        QCheck.Gen.generate1
          ~rand:(Random.State.make [| seed |])
          (Gen.expr_gen ~inputs ~regs 4)
      in
      let out_fmt = Fixed.signed ~width:10 ~frac:3 in
      let sfg =
        Sfg.build (fresh 77) (fun b ->
            Array.iter (fun i -> ignore (Sfg.Builder.input_port b i)) inputs;
            Sfg.Builder.output b "y"
              (Signal.resize ~overflow:Fixed.Saturate out_fmt expr);
            Array.iter
              (fun r ->
                Sfg.Builder.assign_resized b r
                  (Signal.resize ~overflow:Fixed.Saturate
                     (Signal.Reg.fmt r) expr))
              regs)
      in
      let fsm = Fsm.create (fresh 88) in
      let s0 = Fsm.initial fsm "s0" in
      Fsm.(s0 |-- always |+ sfg |-> s0);
      let sys = Cycle_system.create (fresh 99) in
      let c = Cycle_system.add_timed sys "c" fsm in
      let in_fmt = Fixed.signed ~width:6 ~frac:2 in
      let stim i =
        Cycle_system.add_input sys
          (Printf.sprintf "stim%d" i)
          in_fmt
          (fun cyc ->
            let r = Random.State.make [| seed; i; cyc |] in
            ignore rng;
            Some (Fixed.create in_fmt (Int64.of_int (Random.State.int r 63 - 31))))
      in
      let s0i = stim 0 and s1i = stim 1 in
      let probe = Cycle_system.add_output sys "y_out" in
      ignore (Cycle_system.connect sys (s0i, "out") [ (c, "in0") ]);
      ignore (Cycle_system.connect sys (s1i, "out") [ (c, "in1") ]);
      ignore (Cycle_system.connect sys (c, "y") [ (probe, "in") ]);
      let interp = Flow.simulate sys ~cycles:20 in
      let compiled = Flow.simulate ~engine:"compiled" sys ~cycles:20 in
      histories_equal interp compiled)

(* The same property against the event-driven RT engine. *)
let random_system_rtl_property =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000) in
  QCheck.Test.make ~name:"random DAG: rtl == interpreted" ~count:25 arb
    (fun seed ->
      let fresh = Printf.sprintf "rtl%d_%d" seed in
      let in_fmt = Fixed.signed ~width:6 ~frac:2 in
      let inputs =
        Array.init 2 (fun i -> Signal.Input.create (Printf.sprintf "in%d" i) in_fmt)
      in
      let regs = Array.init 2 (fun i -> Signal.Reg.create clk (fresh i) in_fmt) in
      let expr =
        QCheck.Gen.generate1
          ~rand:(Random.State.make [| seed; 17 |])
          (Gen.expr_gen ~inputs ~regs 3)
      in
      let out_fmt = Fixed.signed ~width:10 ~frac:3 in
      let sfg =
        Sfg.build (fresh 77) (fun b ->
            Array.iter (fun i -> ignore (Sfg.Builder.input_port b i)) inputs;
            Sfg.Builder.output b "y"
              (Signal.resize ~overflow:Fixed.Saturate out_fmt expr);
            Array.iter
              (fun r ->
                Sfg.Builder.assign_resized b r
                  (Signal.resize ~overflow:Fixed.Saturate (Signal.Reg.fmt r) expr))
              regs)
      in
      let fsm = Fsm.create (fresh 88) in
      let s0 = Fsm.initial fsm "s0" in
      Fsm.(s0 |-- always |+ sfg |-> s0);
      let sys = Cycle_system.create (fresh 99) in
      let c = Cycle_system.add_timed sys "c" fsm in
      let stim i =
        Cycle_system.add_input sys (Printf.sprintf "stim%d" i) in_fmt
          (fun cyc ->
            let r = Random.State.make [| seed; i; cyc |] in
            Some (Fixed.create in_fmt (Int64.of_int (Random.State.int r 63 - 31))))
      in
      let s0i = stim 0 and s1i = stim 1 in
      let probe = Cycle_system.add_output sys "y_out" in
      ignore (Cycle_system.connect sys (s0i, "out") [ (c, "in0") ]);
      ignore (Cycle_system.connect sys (s1i, "out") [ (c, "in1") ]);
      ignore (Cycle_system.connect sys (c, "y") [ (probe, "in") ]);
      let interp = Flow.simulate sys ~cycles:12 in
      let rtl = Flow.simulate ~engine:"rtl" sys ~cycles:12 in
      histories_equal interp rtl)

(* The same property through synthesis: the gate engine simulates the
   synthesized netlist of the random system, so this is a differential
   sweep of the whole lowering chain — wordgen arithmetic, controller
   encoding and the probe-valid wires — against the interpreter. *)
let random_system_gate_property =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000) in
  QCheck.Test.make ~name:"random DAG: gate == interpreted" ~count:20 arb
    (fun seed ->
      let fresh = Printf.sprintf "gate%d_%d" seed in
      let in_fmt = Fixed.signed ~width:6 ~frac:2 in
      let inputs =
        Array.init 2 (fun i -> Signal.Input.create (Printf.sprintf "in%d" i) in_fmt)
      in
      let regs = Array.init 2 (fun i -> Signal.Reg.create clk (fresh i) in_fmt) in
      let expr =
        QCheck.Gen.generate1
          ~rand:(Random.State.make [| seed; 23 |])
          (Gen.expr_gen ~inputs ~regs 3)
      in
      let out_fmt = Fixed.signed ~width:10 ~frac:3 in
      let sfg =
        Sfg.build (fresh 77) (fun b ->
            Array.iter (fun i -> ignore (Sfg.Builder.input_port b i)) inputs;
            Sfg.Builder.output b "y"
              (Signal.resize ~overflow:Fixed.Saturate out_fmt expr);
            Array.iter
              (fun r ->
                Sfg.Builder.assign_resized b r
                  (Signal.resize ~overflow:Fixed.Saturate (Signal.Reg.fmt r) expr))
              regs)
      in
      let fsm = Fsm.create (fresh 88) in
      let s0 = Fsm.initial fsm "s0" in
      Fsm.(s0 |-- always |+ sfg |-> s0);
      let sys = Cycle_system.create (fresh 99) in
      let c = Cycle_system.add_timed sys "c" fsm in
      let stim i =
        Cycle_system.add_input sys (Printf.sprintf "stim%d" i) in_fmt
          (fun cyc ->
            let r = Random.State.make [| seed; i; cyc |] in
            Some (Fixed.create in_fmt (Int64.of_int (Random.State.int r 63 - 31))))
      in
      let s0i = stim 0 and s1i = stim 1 in
      let probe = Cycle_system.add_output sys "y_out" in
      ignore (Cycle_system.connect sys (s0i, "out") [ (c, "in0") ]);
      ignore (Cycle_system.connect sys (s1i, "out") [ (c, "in1") ]);
      ignore (Cycle_system.connect sys (c, "y") [ (probe, "in") ]);
      let interp = Flow.simulate sys ~cycles:12 in
      let gate = Flow.simulate ~engine:"gate" sys ~cycles:12 in
      histories_equal interp gate)

(* Chains of two components with a combinational cross-component path:
   the front's input-dependent output feeds the back's logic within the
   same cycle, exercising the inter-component part of the static
   compiled schedule. *)
let random_chain_property =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000) in
  QCheck.Test.make ~name:"random 2-component chain: compiled == interpreted"
    ~count:40 arb (fun seed ->
      let fresh = Printf.sprintf "chain%d_%d" seed in
      let in_fmt = Fixed.signed ~width:6 ~frac:2 in
      let mid_fmt = Fixed.signed ~width:9 ~frac:3 in
      let make_comp tag n_inputs out_fmt depth_seed =
        let inputs =
          Array.init n_inputs (fun i ->
              Signal.Input.create (Printf.sprintf "i%d" i)
                (if tag = "front" then in_fmt else mid_fmt))
        in
        let regs =
          Array.init 2 (fun i ->
              Signal.Reg.create clk (fresh (depth_seed + i)) in_fmt)
        in
        let expr =
          QCheck.Gen.generate1
            ~rand:(Random.State.make [| seed; depth_seed |])
            (Gen.expr_gen ~inputs ~regs 3)
        in
        let sfg =
          Sfg.build (fresh (depth_seed + 50)) (fun b ->
              Array.iter (fun i -> ignore (Sfg.Builder.input_port b i)) inputs;
              Sfg.Builder.output b "o"
                (Signal.resize ~overflow:Fixed.Saturate out_fmt expr);
              Array.iter
                (fun r ->
                  Sfg.Builder.assign_resized b r
                    (Signal.resize ~overflow:Fixed.Saturate (Signal.Reg.fmt r)
                       expr))
                regs)
        in
        let fsm = Fsm.create (fresh (depth_seed + 60)) in
        let s0 = Fsm.initial fsm "s0" in
        Fsm.(s0 |-- always |+ sfg |-> s0);
        fsm
      in
      let front = make_comp "front" 2 mid_fmt 100 in
      let back = make_comp "back" 1 (Fixed.signed ~width:10 ~frac:2) 200 in
      let sys = Cycle_system.create (fresh 999) in
      let c1 = Cycle_system.add_timed sys "front" front in
      let c2 = Cycle_system.add_timed sys "back" back in
      let stim i =
        Cycle_system.add_input sys (Printf.sprintf "stim%d" i) in_fmt
          (fun cyc ->
            let r = Random.State.make [| seed; i; cyc |] in
            Some (Fixed.create in_fmt (Int64.of_int (Random.State.int r 63 - 31))))
      in
      let s0i = stim 0 and s1i = stim 1 in
      let probe = Cycle_system.add_output sys "y_out" in
      ignore (Cycle_system.connect sys (s0i, "out") [ (c1, "i0") ]);
      ignore (Cycle_system.connect sys (s1i, "out") [ (c1, "i1") ]);
      ignore (Cycle_system.connect sys (c1, "o") [ (c2, "i0") ]);
      ignore (Cycle_system.connect sys (c2, "o") [ (probe, "in") ]);
      let interp = Flow.simulate sys ~cycles:16 in
      let compiled = Flow.simulate ~engine:"compiled" sys ~cycles:16 in
      histories_equal interp compiled)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest random_system_property;
      QCheck_alcotest.to_alcotest random_system_rtl_property;
      QCheck_alcotest.to_alcotest random_system_gate_property;
      QCheck_alcotest.to_alcotest random_chain_property;
    ]
