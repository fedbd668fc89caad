(* Campaign benchmark runner.

   Runs one workload of the campaign benchmark through the public entry
   points of the campaign layers and writes what it measured as one raw
   JSON file (--out).  run.py generates the inputs, starts this program,
   checks the outputs and turns the raw numbers into metrics.

     serve-short  Ocapi_service.serve, 2 worker processes of the built CLI
     batch-long   Ocapi_batch on 1 domain, in-process
     fuzz-fresh   Ocapi_diff.fuzz on 1 domain, cold native artifact cache
                  every round

   Untraced mode (--trace 0) repeats closed rounds of the campaign until
   --seconds have passed, at least three times, after a warm-up round
   (batch-long and fuzz-fresh).  Traced mode (--trace 1) runs one untraced and
   one traced round (Ocapi_obs counters on), then replays every distinct
   job serially through the layer APIs (design build, digest, engine
   build and step, fault campaigns, IR passes, diff checks, JSON
   serialisation, artifact write) under spans recorded here, around this
   program's own calls.  Spans carry the job's correlation id.

   Set-up time is measured on fresh processes of this program started
   with --setup-probe, which run one workload set-up, print "ready" and
   exit. *)

module Json = Ocapi_obs.Json

let now = Unix.gettimeofday

(* Nanosecond monotonic clock for set-up and spans, which can be
   microseconds long. *)
let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("campaign: " ^ s); exit 2) fmt

(* --- spans ----------------------------------------------------------------- *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_corr : string;
  sp_parent : int;
  sp_start : float;
  mutable sp_stop : float;
  mutable sp_args : (string * Json.t) list;
}

let spans : span list ref = ref []
let open_spans : span list ref = ref []
let next_span = ref 0

(* Spans are recorded on the main domain only, around this program's
   calls into the libraries; children inherit their parent's corr. *)
let span ?corr name f =
  incr next_span;
  let parent, pcorr =
    match !open_spans with p :: _ -> (p.sp_id, p.sp_corr) | [] -> (0, "")
  in
  let sp =
    {
      sp_id = !next_span;
      sp_name = name;
      sp_corr = Option.value corr ~default:pcorr;
      sp_parent = parent;
      sp_start = clock ();
      sp_stop = nan;
      sp_args = [];
    }
  in
  open_spans := sp :: !open_spans;
  Fun.protect
    ~finally:(fun () ->
      sp.sp_stop <- clock ();
      open_spans := List.tl !open_spans;
      spans := sp :: !spans)
    f

(* Attach a count to the innermost open span. *)
let note key v =
  match !open_spans with sp :: _ -> sp.sp_args <- (key, v) :: sp.sp_args | [] -> ()

let span_json sp =
  Json.Obj
    [
      ("id", Json.Int sp.sp_id);
      ("name", Json.String sp.sp_name);
      ("corr", Json.String sp.sp_corr);
      ("parent", Json.Int sp.sp_parent);
      ("start", Json.Float sp.sp_start);
      ("end", Json.Float sp.sp_stop);
      ("args", Json.Obj (List.rev sp.sp_args));
    ]

(* --- files ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0
    (try Sys.readdir dir with Sys_error _ -> [||])

(* Peak resident memory after the first round: what one campaign in a
   fresh process needs.  Later rounds would add the code of every plugin
   dynlinked so far, which depends on how many rounds fit the window. *)
let rss_first_round = ref nan

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* --- the gallery designs (the same builders as the CLI) ---------------------- *)

let build_design = function
  | "hcor" ->
    let bits = Dect_stimuli.burst ~seed:1 () in
    let rx = Dect_stimuli.channel ~snr_db:25.0 ~seed:1 (Dect_stimuli.transmit bits) in
    let samples =
      Dect_stimuli.quantize Hcor.sample_format (Array.map (fun x -> x /. 2.0) rx)
    in
    (Hcor.create ~stimulus:(Hcor.sample_stimulus samples) ()).Hcor.system
  | "dect" ->
    let stim c =
      Some
        (Fixed.of_float ~overflow:Fixed.Saturate Dect_transceiver.sample_format
           (sin (float c *. 0.37) /. 2.2))
    in
    (Dect_transceiver.create ~stimulus:stim ()).Dect_transceiver.system
  | "rs" ->
    (Rs_codec.create ~data_stimulus:(Rs_codec.data_stimulus ())
       ~err_stimulus:(Rs_codec.err_stimulus ()) ())
      .Rs_codec.system
  | "cpu" -> (Acc_cpu.create ~io_stimulus:(Acc_cpu.io_stimulus ()) ()).Acc_cpu.system
  | other -> fail "unknown design %S" other

let macro_of = function
  | "dect" -> Dect_transceiver.macro_of_kernel
  | "cpu" -> Ram_cell.macro_of_kernel
  | _ -> fun _ -> None

let gallery = [ "hcor"; "dect"; "rs"; "cpu" ]

(* Like the CLI, build each design once while registering it. *)
let register_designs () =
  List.iter
    (fun name ->
      ignore (build_design name);
      Ocapi_batch.register_design ~macro_of_kernel:(macro_of name) ~name (fun () ->
          build_design name))
    gallery

(* --- native guard ------------------------------------------------------------- *)

let native_availability () =
  match Ocapi_native.availability () with
  | Ok () -> "ok"
  | Error e -> e.Ocapi_error.e_message

let guard_native () =
  if native_availability () <> "ok" then
    fail "native engine unavailable: %s" (native_availability ());
  let s = Ocapi_native.stats () in
  if s.Ocapi_native.fallbacks > 0 then
    fail "%d native session(s) fell back to the interpreted program"
      s.Ocapi_native.fallbacks

let native_stats_json () =
  let s = Ocapi_native.stats () in
  Json.Obj
    [
      ("compiles", Json.Int s.Ocapi_native.compiles);
      ("cache_hits", Json.Int s.cache_hits);
      ("corrupt_misses", Json.Int s.corrupt_misses);
      ("fallbacks", Json.Int s.fallbacks);
      ("loads", Json.Int s.loads);
    ]

(* Build one native session per gallery design so the artifact cache is
   warm before the timed rounds. *)
let warm_native designs =
  let eng = Ocapi_engine.get "native" in
  let module E = (val eng) in
  List.iter
    (fun d ->
      let ses = E.make (build_design d) in
      ses.Ocapi_engine.ses_close ())
    designs;
  guard_native ()

(* The worker processes are the CLI: check that it loads native plugins
   too, from its own telemetry report. *)
let guard_cli_native ~cli designs =
  List.iter
    (fun d ->
      let ic =
        Unix.open_process_args_in cli
          [| cli; "simulate"; d; "--engine"; "native"; "--cycles"; "1"; "--telemetry" |]
      in
      let out = In_channel.input_all ic in
      ignore (Unix.close_process_in ic);
      let has sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length out && (String.sub out i n = sub || go (i + 1)) in
        go 0
      in
      if has "native.fallbacks" || not (has "native.loads") then
        fail "the worker CLI does not load native plugins for %s" d)
    designs

(* --- job parameters ------------------------------------------------------------- *)

let int_member k j = match Json.member k j with Some (Json.Int n) -> n | _ -> 0

(* Simulated cycles of one executed job, from its parameters and, for
   stuck-at campaigns, from its report. *)
let job_cycles (job : Ocapi_batch.job) report =
  match job with
  | Ocapi_batch.Simulate { sim_cycles; _ } -> sim_cycles
  | Seu { seu_runs; seu_cycles; _ } -> seu_runs * seu_cycles
  | Stuck_at _ -> int_member "simulated" report * int_member "vectors" report
  | Engine_sweep _ | Fuzz _ | Custom _ -> 0

let floats l = Json.List (List.map (fun x -> Json.Float x) l)

(* --- batch-long ----------------------------------------------------------------- *)

(* One domain: on a 2-vCPU virtual machine two domains meet at every
   stop-the-world minor collection, so a vCPU the hypervisor holds back
   stalls both, and whole runs read 20-27% apart.  One domain also did
   more work per second than two on that machine (design.json). *)
let batch_domains = 1

(* The workloads' set-ups: design registration, manifest or corpus
   load, executor creation.  A round runs one; a set-up probe process
   (--setup-probe) runs one and exits. *)
let batch_setup ~manifest ~dir ~on_event =
  span "setup" (fun () ->
      span "designs.register" register_designs;
      let reqs =
        span "manifest.parse" (fun () ->
            match Ocapi_batch.read_manifest manifest with
            | Ok r -> r
            | Error e -> fail "manifest: %s" e)
      in
      let t =
        span "executor.create" (fun () ->
            Ocapi_batch.create ~domains:batch_domains ~artifact_dir:dir ~on_event ())
      in
      (reqs, t))

let batch_round ~manifest ~dir =
  rm_rf dir;
  let lock = Mutex.create () in
  let finished = Hashtbl.create 64 in
  let submitted = ref [] in
  let on_event = function
    | Ocapi_batch.Ev_finished { ev_corr; _ } ->
      let t = now () in
      Mutex.protect lock (fun () -> Hashtbl.replace finished ev_corr t)
    | Ev_submitted { ev_corr; ev_dedup; _ } ->
      Mutex.protect lock (fun () -> submitted := (ev_corr, ev_dedup) :: !submitted)
    | Ev_started _ -> ()
  in
  let reqs, t = batch_setup ~manifest ~dir ~on_event in
  let t_first = now () in
  let handles =
    span "campaign" (fun () ->
        let hs =
          List.map
            (fun r ->
              let ts = now () in
              (r, ts, Ocapi_batch.submit_request t r))
            reqs
        in
        let outs = List.map (fun (r, ts, h) -> (r, ts, Ocapi_batch.await t h)) hs in
        Ocapi_batch.shutdown t;
        outs)
  in
  let t_end = now () in
  let st = Ocapi_batch.stats t in
  let corrs = List.rev !submitted in
  if List.length corrs <> List.length handles then fail "batch: lost submit events";
  let lat = ref [] and failed = ref 0 and cycles = ref 0 in
  let exec_s = ref [] and queue_s = ref [] and job_corrs = ref [] and by_corr = ref [] in
  List.iter2
    (fun ((r : Ocapi_batch.request), ts, outcome) (corr, dedup) ->
      job_corrs := corr :: !job_corrs;
      match outcome with
      | Ocapi_batch.Completed c ->
        let fin = Hashtbl.find finished corr in
        lat := Float.max 0. (fin -. ts) :: !lat;
        if not dedup then begin
          cycles := !cycles + job_cycles r.rq_job c.oc_json;
          exec_s := c.oc_seconds :: !exec_s;
          by_corr := (corr, Json.Float c.oc_seconds) :: !by_corr;
          queue_s := c.oc_queue_seconds :: !queue_s
        end
      | Failed _ | Cancelled -> incr failed)
    handles corrs;
  Json.Obj
    [
      ("makespan_s", Json.Float (t_end -. t_first));
      ("jobs", Json.Int (List.length handles));
      ("failed", Json.Int !failed);
      ("sim_cycles", Json.Int !cycles);
      ("latencies", floats (List.rev !lat));
      ("artifact_dir", Json.String dir);
      ("artifact_bytes", Json.Int (dir_bytes dir));
      ("corrs", Json.List (List.rev_map (fun c -> Json.String c) !job_corrs));
      ( "executor",
        Json.Obj
          [
            ("domains", Json.Int batch_domains);
            ("job_wall_s", floats !exec_s);
            ("queue_wait_s", floats !queue_s);
            ("busy_s", Json.Float (List.fold_left ( +. ) 0. !exec_s));
            ("job_wall_by_corr", Json.Obj (List.rev !by_corr));
            ("submitted", Json.Int st.Ocapi_batch.bs_submitted);
            ("deduped", Json.Int st.bs_deduped);
            ("executed", Json.Int st.bs_executed);
            ("dedup_ratio", Json.Float st.bs_dedup_hit_rate);
            ("retries", Json.Int 0);
          ] );
    ]

(* --- serve-short ----------------------------------------------------------------- *)

let admission_kinds = [ "job_submitted"; "job_deduped"; "job_rejected"; "job_failed" ]

let serve_setup ~manifest ~dir ~cli =
  span "setup" (fun () ->
      span "designs.register" register_designs;
      let requests =
        span "manifest.parse" (fun () ->
            match Ocapi_service.read_manifest manifest with
            | Ok r -> r
            | Error e -> fail "manifest: %s" e)
      in
      let cfg =
        span "executor.create" (fun () ->
            let state = Filename.concat dir "state" in
            mkdir_p state;
            {
              Ocapi_service.default_config with
              cf_workers = 2;
              cf_state_dir = state;
              cf_artifact_dir = Filename.concat dir "artifacts";
              cf_worker_cmd = [ cli; "worker" ];
            })
      in
      (requests, cfg))

let serve_round ~manifest ~dir ~cli =
  rm_rf dir;
  let requests, cfg = serve_setup ~manifest ~dir ~cli in
  Ocapi_obs.Events.clear ();
  Ocapi_obs.Events.set_enabled true;
  let t_first = now () in
  let sm = span "campaign" (fun () -> Ocapi_service.serve cfg ~requests) in
  let t_end = now () in
  let evs = Ocapi_obs.Events.events () in
  Ocapi_obs.Events.set_enabled false;
  let open Ocapi_obs.Events in
  let admissions =
    List.filter (fun e -> List.mem e.e_kind admission_kinds) evs
    |> List.filteri (fun i _ -> i < List.length requests)
  in
  if List.length admissions <> List.length requests then
    fail "serve: %d admission evs for %d requests" (List.length admissions)
      (List.length requests);
  let last kind corr =
    List.fold_left
      (fun acc e -> if e.e_kind = kind && e.e_corr = corr then Some e.e_ts else acc)
      None evs
  in
  let first kind corr =
    List.find_map
      (fun e -> if e.e_kind = kind && e.e_corr = corr then Some e.e_ts else None)
      evs
  in
  let lat = ref [] and failed = ref 0 and cycles = ref 0 in
  let queue = ref [] and wall = ref [] in
  List.iter2
    (fun raw adm ->
      match last "job_completed" adm.e_corr with
      | None -> incr failed
      | Some fin ->
        lat := Float.max 0. (fin -. adm.e_ts) :: !lat;
        if adm.e_kind = "job_submitted" then begin
          (match Ocapi_batch.request_of_json raw with
          | Ok r -> cycles := !cycles + job_cycles r.rq_job Json.Null
          | Error e -> fail "request: %s" e);
          match (first "job_started" adm.e_corr, last "job_started" adm.e_corr) with
          | Some s0, Some s1 ->
            queue := (s0 -. adm.e_ts) :: !queue;
            wall := (fin -. s1) :: !wall
          | _ -> ()
        end)
    requests admissions;
  (* Stuck-at cycles come from the reports the workers wrote. *)
  let art = cfg.cf_artifact_dir in
  Array.iter
    (fun f ->
      match Json.of_string (read_file (Filename.concat art f)) with
      | Ok j when Json.member "campaign" j = Some (Json.String "stuck-at") ->
        cycles := !cycles + (int_member "simulated" j * int_member "vectors" j)
      | _ -> ())
    (try Sys.readdir art with Sys_error _ -> [||]);
  Json.Obj
    [
      ("makespan_s", Json.Float (t_end -. t_first));
      ("jobs", Json.Int (List.length requests));
      ("failed", Json.Int (!failed + sm.Ocapi_service.sm_failed));
      ("sim_cycles", Json.Int !cycles);
      ("latencies", floats (List.rev !lat));
      ("artifact_dir", Json.String art);
      ("artifact_bytes", Json.Int (dir_bytes art));
      ("corrs", Json.List (List.map (fun e -> Json.String e.e_corr) admissions));
      ( "executor",
        Json.Obj
          [
            ("queue_wait_s", floats !queue);
            ("job_wall_s", floats !wall);
            ( "job_wall_by_corr",
              Json.Obj
                (List.filter_map
                   (fun adm ->
                     match
                       (last "job_started" adm.e_corr, last "job_completed" adm.e_corr)
                     with
                     | Some s, Some c when adm.e_kind = "job_submitted" ->
                       Some (adm.e_corr, Json.Float (c -. s))
                     | _ -> None)
                   admissions) );
            ("domains", Json.Int cfg.cf_workers);
            ("busy_s", Json.Float (List.fold_left ( +. ) 0. !wall));
            ( "dedup_ratio",
              Json.Float (float_of_int sm.sm_deduped /. float_of_int (max 1 sm.sm_submitted)) );
            ("retries", Json.Int (sm.sm_crashes + sm.sm_retries));
            ("rejected", Json.Int sm.sm_rejected);
          ] );
    ]

(* --- fuzz-fresh -------------------------------------------------------------------- *)

(* One domain, as batch-long; plugin compiles run in child processes
   and are serialised under the native load lock either way. *)
let fuzz_domains = 1
let fuzz_size = 3
let fuzz_count = 24

let last_fuzz_report = ref None

let fuzz_setup ~corpus_path =
  span "setup" (fun () ->
      let corpus =
        span "corpus.load" (fun () ->
            match Ocapi_diff.Corpus.load corpus_path with
            | Ok c -> c
            | Error e -> fail "corpus: %s" e)
      in
      (corpus, Ocapi_diff.default_engines ()))

let fuzz_round ~corpus_path ~seed ~dir =
  rm_rf dir;
  mkdir_p dir;
  Ocapi_native.clear_disk_cache ();
  let n0 = Ocapi_native.stats () in
  let corpus, engines = fuzz_setup ~corpus_path in
  let lock = Mutex.create () in
  let starts = ref [] in
  let progress i =
    let t = now () in
    let d = (Domain.self () :> int) in
    Mutex.protect lock (fun () -> starts := (d, i, t) :: !starts)
  in
  let t_first = now () in
  let report =
    span "campaign" (fun () ->
        Ocapi_diff.fuzz ~engines ~deep:true ~size:fuzz_size ~domains:fuzz_domains
          ~corpus ~progress ~seed ~count:fuzz_count ())
  in
  let t_end = now () in
  let n_replay = List.length corpus in
  (* A task ends where the next task on the same domain starts:
     (index, start, end) for every task but each domain's last, whose end
     is not observed (the campaign returns when the slower domain is
     done).  Corpus replays come first. *)
  let by_domain = Hashtbl.create 4 in
  List.iter
    (fun (d, i, t) ->
      Hashtbl.replace by_domain d
        ((i, t) :: Option.value (Hashtbl.find_opt by_domain d) ~default:[]))
    !starts;
  let tasks =
    Hashtbl.fold
      (fun _ ts acc ->
        let rec go acc = function
          | (i, t) :: ((_, t') :: _ as rest) -> go ((i, t, t') :: acc) rest
          | [ _ ] | [] -> acc
        in
        go acc (List.sort (fun (_, a) (_, b) -> compare a b) ts))
      by_domain []
  in
  let fresh = List.filter (fun (i, _, _) -> i >= n_replay) tasks in
  let digest_of i =
    (List.find (fun r -> r.Ocapi_diff.dr_index = i - n_replay) report.fz_results).dr_digest
  in
  let report_path = Filename.concat dir "fuzz-report.json" in
  write_file report_path (Json.to_string (Ocapi_diff.report_json report) ^ "\n");
  let cycles =
    List.fold_left
      (fun acc r -> acc + (r.Ocapi_diff.dr_cycles * List.length engines))
      0 report.fz_results
  in
  guard_native ();
  last_fuzz_report := Some report;
  Json.Obj
    [
      ("makespan_s", Json.Float (t_end -. t_first));
      ("jobs", Json.Int fuzz_count);
      ("failed", Json.Int (report.fz_divergent + report.fz_replay_failures));
      ("sim_cycles", Json.Int cycles);
      ("latencies", floats (List.map (fun (_, _, e) -> e -. t_first) fresh));
      ("artifact_dir", Json.String dir);
      ("artifact_bytes", Json.Int (dir_bytes dir));
      ( "native",
        let n1 = Ocapi_native.stats () in
        Json.Obj
          [
            ("compiles", Json.Int (n1.Ocapi_native.compiles - n0.Ocapi_native.compiles));
            ("cache_hits", Json.Int (n1.cache_hits - n0.cache_hits));
          ] );
      ("replays", Json.Int n_replay);
      ("campaign", Json.Int seed);
      ( "executor",
        Json.Obj
          [
            ("domains", Json.Int fuzz_domains);
            ("queue_wait_s", floats (List.map (fun (_, s, _) -> s -. t_first) fresh));
            ("job_wall_s", floats (List.map (fun (_, s, e) -> e -. s) fresh));
            (* A lower bound: the domains' last tasks are left out. *)
            ("busy_s", Json.Float (List.fold_left (fun acc (_, s, e) -> acc +. e -. s) 0. tasks));
            ( "job_wall_by_corr",
              Json.Obj (List.map (fun (i, s, e) -> (digest_of i, Json.Float (e -. s))) fresh) );
          ] );
    ]

(* --- layered replay (traced mode) ----------------------------------------------------- *)

let decomp_dir = ref "."
let artifact_seq = ref 0

(* [report ()] builds the JSON tree; building and printing it are both
   serialisation. *)
let serialise_and_write report =
  let s =
    span "obs.json" (fun () ->
        let s = Json.to_string (report ()) ^ "\n" in
        note "bytes" (Json.Int (String.length s));
        s)
  in
  incr artifact_seq;
  let path = Filename.concat !decomp_dir (Printf.sprintf "job-%03d.json" !artifact_seq) in
  span "artifact.write" (fun () -> write_file path s);
  String.length s

(* One engine session over [sys]: build, step, resident words. *)
let engine_session ename sys ~cycles =
  let eng = Ocapi_engine.get ename in
  let ename = Ocapi_engine.name_of eng in
  let module E = (val eng) in
  let compiles0 = (Ocapi_native.stats ()).Ocapi_native.compiles in
  let ses =
    span ("engine." ^ ename ^ ".build") (fun () ->
        let ses = E.make sys in
        let compiled = (Ocapi_native.stats ()).Ocapi_native.compiles - compiles0 in
        if compiled > 0 then note "compiled" (Json.Int compiled);
        ses)
  in
  Fun.protect
    ~finally:(fun () -> ses.Ocapi_engine.ses_close ())
    (fun () ->
      let hist =
        span ("engine." ^ ename ^ ".step") (fun () ->
            note "cycles" (Json.Int cycles);
            note "resident_words" (Json.Int (ses.ses_resident_words ()));
            Ocapi_engine.run ses ~cycles)
      in
      (ename, hist))

let ir_passes sys ~cycles =
  let b = Ocapi_ir.behavioral sys in
  let g = span "ir.lower_to_gate" (fun () -> Ocapi_ir.apply Ocapi_ir.lower_to_gate b) in
  let o = span "ir.optimize_gates" (fun () -> Ocapi_ir.apply Ocapi_ir.optimize_gates g) in
  span "ir.equivalence" (fun () ->
      match Ocapi_ir.check_equivalence ~cycles b o with
      | Ok () -> ()
      | Error e -> fail "optimized netlist not equivalent: %s" e.Ocapi_error.e_message)

let build_and_digest name =
  let sys = span "designs.build" (fun () -> build_design name) in
  ignore (span "sched.digest" (fun () -> Cycle_system.digest sys));
  sys

(* Replay one manifest job through the layers the executors call.  For
   a stuck-at job the IR passes (which the campaign runs inside its own
   synthesis) are timed beside the job, under the same corr. *)
let replay_job ~corr (job : Ocapi_batch.job) =
  (match job with
  | Ocapi_batch.Stuck_at { sa_design; sa_cycles; _ } ->
    span ~corr "ir" (fun () -> ir_passes (build_and_digest sa_design) ~cycles:sa_cycles)
  | _ -> ());
  span ~corr "job" (fun () ->
      match job with
      | Ocapi_batch.Simulate { sim_design; sim_engine; sim_cycles; _ } ->
        let sys = build_and_digest sim_design in
        let engine, hist = engine_session sim_engine sys ~cycles:sim_cycles in
        ignore
          (serialise_and_write (fun () ->
               Flow.simulate_result_json ~engine ~cycles:sim_cycles hist))
      | Seu { seu_design; seu_engine; seu_runs; seu_cycles; seu_seed } ->
        let sys = build_and_digest seu_design in
        let engine = Ocapi_engine.name_of (Ocapi_engine.get seu_engine) in
        let rep =
          span ("fault.seu." ^ engine) (fun () ->
              note "runs" (Json.Int seu_runs);
              note "cycles" (Json.Int (seu_runs * seu_cycles));
              Ocapi_fault.seu_campaign ~engine ~runs:seu_runs ~seed:seu_seed sys
                ~cycles:seu_cycles)
        in
        ignore (serialise_and_write (fun () -> Ocapi_fault.seu_report_json rep))
      | Stuck_at { sa_design; sa_cycles; sa_seed; sa_max_faults } ->
        let sys = build_and_digest sa_design in
        let rep =
          span "fault.stuck_at" (fun () ->
              let rep =
                Ocapi_fault.stuck_at_system ?max_faults:sa_max_faults ~seed:sa_seed
                  ~macro_of_kernel:(macro_of sa_design) sys ~cycles:sa_cycles
              in
              note "faults" (Json.Int rep.Ocapi_fault.st_simulated);
              note "cycles" (Json.Int (rep.st_simulated * rep.st_vectors));
              rep)
        in
        ignore (serialise_and_write (fun () -> Ocapi_fault.stuck_report_json rep))
      | Engine_sweep _ | Fuzz _ | Custom _ -> fail "unsupported job kind in manifest")

(* Replay one fresh fuzz design: generation, elaboration, every engine
   (native cold), the IR passes and the differential checks. *)
let replay_design ~engines (dr : Ocapi_diff.design_result) =
  span ~corr:dr.dr_digest "job" (fun () ->
      let spec =
        span "diff.generate" (fun () -> Ocapi_diff.Spec.generate ~size:fuzz_size ~seed:dr.dr_seed ())
      in
      let fresh () =
        let sys = span "designs.build" (fun () -> Ocapi_diff.Spec.build spec) in
        ignore (span "sched.digest" (fun () -> Cycle_system.digest sys));
        sys
      in
      let cycles = spec.Ocapi_diff.Spec.sp_cycles in
      List.iter (fun e -> ignore (engine_session e (fresh ()) ~cycles)) engines;
      ir_passes (fresh ()) ~cycles;
      let check name deep =
        span name (fun () ->
            if Ocapi_diff.check_spec ~engines ~deep spec <> [] then
              fail "fuzz design %d diverged on replay" dr.dr_index)
      in
      (* The fault campaigns of the deep check, timed on their own. *)
      List.iter
        (fun engine ->
          span ("fault.seu." ^ engine) (fun () ->
              note "runs" (Json.Int 8);
              ignore
                (Ocapi_fault.seu_campaign ~engine ~runs:8
                   ~seed:(1 + (dr.dr_seed land 0xffff))
                   (fresh ()) ~cycles)))
        [ "interp"; "compiled" ];
      span "fault.stuck_at" (fun () ->
          let rep =
            Ocapi_fault.stuck_at_system ~max_faults:8 ~seed:7
              ~macro_of_kernel:Ocapi_ir.macro_of_model (fresh ()) ~cycles
          in
          note "faults" (Json.Int rep.Ocapi_fault.st_simulated));
      check "diff.check" false;
      check "diff.deep" true)

(* Extra wall time of a process that dynlinked a plugin: a 1-cycle
   native CLI run against a 1-cycle compiled one, each minus its
   in-process build + step. *)
let process_exit_probe ~cli =
  let run_process engine d =
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let t = now () in
    let pid =
      Unix.create_process cli
        [| cli; "simulate"; d; "--engine"; engine; "--cycles"; "1" |]
        Unix.stdin null null
    in
    ignore (Unix.waitpid [] pid);
    let dt = now () -. t in
    Unix.close null;
    dt
  in
  let in_process engine d =
    let t = now () in
    let eng = Ocapi_engine.get engine in
    let module E = (val eng) in
    let ses = E.make (build_design d) in
    ignore (Ocapi_engine.run ses ~cycles:1);
    ses.Ocapi_engine.ses_close ();
    now () -. t
  in
  List.concat_map
    (fun d ->
      List.init 3 (fun _ ->
          let pn = run_process "native" d and pc = run_process "compiled" d in
          let inn = in_process "native" d and inc = in_process "compiled" d in
          pn -. pc -. (inn -. inc)))
    gallery

(* --- main ---------------------------------------------------------------------------- *)

let gc_json g0 g1 =
  Json.Obj
    [
      ("minor_words", Json.Float (g1.Gc.minor_words -. g0.Gc.minor_words));
      ("major_collections", Json.Int (g1.major_collections - g0.major_collections));
    ]

let counters_json () =
  Json.Obj
    (List.filter_map
       (fun (name, v) ->
         match v with Ocapi_obs.Counter_v n -> Some (name, Json.Int n) | _ -> None)
       (Ocapi_obs.snapshot ()))

(* An untraced run repeats the campaign until the window has passed, and
   at least this often, so that every metric covers several rounds. *)
let min_rounds = 3

(* batch-long and fuzz-fresh run one unmeasured warm-up round first: the
   first round in a process reads slower (heap growth, page faults, the
   compiler's files not yet in the page cache).  A serve-short round is
   bound by worker heartbeats and is not warmed. *)
let warm_up = function "serve-short" -> false | _ -> true

(* Set-up is what a user waits for before the first job is submitted,
   starting from process start: program and runtime start-up, module
   initialisation (engine registry), then the workload's set-up.  It is
   measured on fresh probe processes of this program, because a set-up
   inside a long-lived process takes microseconds and reads differently
   with the state the process has built up.  A batch of probes runs
   before the first round and after every untraced round, so that the
   probes of one run sample the host over the whole window. *)
let setup_probes = 16

let probe_setup args =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = clock () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.append [| Sys.executable_name; "--setup-probe" |] args)
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  let t1 = clock () in
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 when line = "ready" -> ()
  | _ -> fail "set-up probe failed");
  t1 -. t0

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref nan and trace = ref 0 in
  let manifest = ref "" and work = ref "" and cli = ref "" and corpus = ref "" in
  let out = ref "" and probe = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve-short | batch-long | fuzz-fresh");
      ("--seed", Arg.Set_int seed, "N fuzz campaign seed");
      ("--seconds", Arg.Set_float seconds, "S measuring window");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--manifest", Arg.Set_string manifest, "FILE JSONL manifest");
      ("--work", Arg.Set_string work, "DIR scratch directory");
      ("--cli", Arg.Set_string cli, "FILE the built ocapi CLI (worker command)");
      ("--corpus", Arg.Set_string corpus, "FILE fuzz corpus");
      ("--out", Arg.Set_string out, "FILE raw result");
      ("--setup-probe", Arg.Set probe, " run the workload's set-up, print ready and exit");
    ]
    (fun a -> fail "unexpected argument %S" a)
    "campaign --workload NAME --seconds S --work DIR --out FILE [options]";
  if !work = "" then fail "--work is required";
  if !probe then begin
    let ready () = print_endline "ready" in
    (match !workload with
    | "batch-long" ->
      let _, t =
        batch_setup ~manifest:!manifest ~dir:(Filename.concat !work "probe")
          ~on_event:ignore
      in
      ready ();
      Ocapi_batch.shutdown t
    | "serve-short" ->
      let _, cfg =
        serve_setup ~manifest:!manifest ~dir:(Filename.concat !work "probe") ~cli:!cli
      in
      (* What serve does before its first admission: load and replay the
         journal, then open it for appends. *)
      let journal = Filename.concat cfg.Ocapi_service.cf_state_dir "journal.jsonl" in
      (match Ocapi_service.journal_load journal with
      | Ok entries -> ignore (Ocapi_service.replay entries)
      | Error e -> fail "journal: %s" e);
      Ocapi_service.journal_close (Ocapi_service.journal_open journal);
      ready ()
    | "fuzz-fresh" ->
      ignore (fuzz_setup ~corpus_path:!corpus);
      ready ()
    | w -> fail "unknown workload %S" w);
    exit 0
  end;
  if !out = "" then fail "--out is required";
  if Float.is_nan !seconds then fail "--seconds is required";
  guard_native ();
  mkdir_p !work;
  let round k =
    let dir = Filename.concat !work (Printf.sprintf "round-%d" k) in
    match !workload with
    | "batch-long" -> batch_round ~manifest:!manifest ~dir
    | "serve-short" -> serve_round ~manifest:!manifest ~dir ~cli:!cli
    | "fuzz-fresh" ->
      (* Every round is a fresh night: round k fuzzes campaign seed + k,
         so a run covers several design sets rather than one.
         Round 0 (the warm-up, or the untraced round of a traced run)
         repeats round 1's campaign, and the two must write identical
         reports. *)
      fuzz_round ~corpus_path:!corpus ~seed:(!seed + max k 1) ~dir
    | w -> fail "unknown workload %S" w
  in
  (match !workload with
  | "batch-long" -> warm_native [ "hcor"; "rs"; "cpu" ]
  | "serve-short" ->
    warm_native gallery;
    guard_cli_native ~cli:!cli gallery
  | _ -> ());
  let setup_s = ref [] in
  let probe_batch () =
    for _ = 1 to setup_probes do
      let t =
        probe_setup
          [| "--workload"; !workload; "--manifest"; !manifest; "--work"; !work;
             "--cli"; !cli; "--corpus"; !corpus |]
      in
      setup_s := t :: !setup_s
    done
  in
  probe_batch ();
  let warmup = ref Json.Null in
  let rounds, trace_json =
    if !trace = 0 then begin
      let first =
        if warm_up !workload then begin
          warmup := round 0;
          rss_first_round := peak_rss_mb ();
          spans := [];
          1
        end
        else 0
      in
      let t0 = now () in
      let rec loop k acc =
        let r = round k in
        if Float.is_nan !rss_first_round then rss_first_round := peak_rss_mb ();
        spans := [];
        probe_batch ();
        if k + 1 - first < min_rounds || now () -. t0 < !seconds then loop (k + 1) (r :: acc)
        else List.rev (r :: acc)
      in
      (loop first [], Json.Null)
    end
    else begin
      let untraced = round 0 in
      rss_first_round := peak_rss_mb ();
      spans := [];
      Ocapi_obs.reset ();
      Ocapi_obs.enable ();
      let g0 = Gc.quick_stat () in
      let n0 = Ocapi_native.stats () in
      let traced = span "round" (fun () -> round 1) in
      let g1 = Gc.quick_stat () in
      let n1 = Ocapi_native.stats () in
      let round_spans = !spans in
      spans := [];
      Ocapi_obs.reset_metrics ();
      decomp_dir := Filename.concat !work "replay";
      rm_rf !decomp_dir;
      mkdir_p !decomp_dir;
      let corrs =
        match Json.member "corrs" traced with
        | Some (Json.List l) -> List.map (function Json.String s -> s | _ -> "") l
        | _ -> []
      in
      let exit_probe =
        match !workload with
        | "fuzz-fresh" ->
          (* A fresh night: the replay compiles every plugin again. *)
          Ocapi_native.clear_disk_cache ();
          Option.iter
            (fun r ->
              List.iter
                (replay_design ~engines:(Ocapi_diff.default_engines ()))
                r.Ocapi_diff.fz_results;
              span "report" (fun () ->
                  ignore (serialise_and_write (fun () -> Ocapi_diff.report_json r))))
            !last_fuzz_report;
          []
        | _ ->
          let lines =
            String.split_on_char '\n' (read_file !manifest)
            |> List.filter (fun l -> String.trim l <> "")
          in
          let seen = Hashtbl.create 32 in
          List.iter2
            (fun line corr ->
              if not (Hashtbl.mem seen line) then begin
                Hashtbl.add seen line ();
                match Ocapi_batch.request_of_line line with
                | Ok r -> replay_job ~corr r.rq_job
                | Error e -> fail "manifest: %s" e
              end)
            lines corrs;
          if !workload = "serve-short" then process_exit_probe ~cli:!cli else []
      in
      guard_native ();
      let n2 = Ocapi_native.stats () in
      ( [ untraced; traced ],
        Json.Obj
          [
            ("untraced_round", untraced);
            ("traced_round", traced);
            ("round_spans", Json.List (List.rev_map span_json round_spans));
            ("spans", Json.List (List.rev_map span_json !spans));
            ("counters", counters_json ());
            ("gc", gc_json g0 g1);
            ( "native_round",
              Json.Obj
                [
                  ("compiles", Json.Int (n1.Ocapi_native.compiles - n0.Ocapi_native.compiles));
                  ("cache_hits", Json.Int (n1.cache_hits - n0.cache_hits));
                ] );
            ( "native_replay",
              Json.Obj
                [
                  ("compiles", Json.Int (n2.Ocapi_native.compiles - n1.Ocapi_native.compiles));
                  ("cache_hits", Json.Int (n2.cache_hits - n1.cache_hits));
                ] );
            ("process_exit_s", floats exit_probe);
          ] )
    end
  in
  let result =
    Json.Obj
      [
        ("workload", Json.String !workload);
        ("seed", Json.Int !seed);
        ("trace", Json.Int !trace);
        ( "host",
          Json.Obj
            [
              ("nproc", Json.Int (Domain.recommended_domain_count ()));
              ("ocaml", Json.String Sys.ocaml_version);
              ("native", Json.String (native_availability ()));
            ] );
        ("setup_s", floats (List.rev !setup_s));
        ("rounds", Json.List rounds);
        ("warmup", !warmup);
        ("peak_rss_mb", Json.Float !rss_first_round);
        ("native", native_stats_json ());
        ("trace_data", trace_json);
      ]
  in
  write_file !out (Json.to_string result ^ "\n")
