(* The in-process executor of the campaign core: an
   [Ocapi_parallel.Service] domain pool, per-handle timeouts and
   cancellation, and an async artifact writer thread.  Queue order,
   dedup and lifecycle events are [Ocapi_campaign]'s.

   Concurrency map:
   - one service mutex guards the core state, the executions and their
     handles; [bt_work] wakes workers, [bt_done] wakes awaiters;
   - worker domains run [pull] and the job bodies; jobs touch only the
     system built for their own execution, so no design state crosses
     domains;
   - the writer is a systhread of the creating domain with its own
     mutex/condition; workers hand it (path, bytes) pairs and never
     block on the disk;
   - events and callbacks fire outside every lock. *)

module Json = Ocapi_obs.Json

(* --- design registry ------------------------------------------------------ *)

type design_spec = {
  ds_build : unit -> Cycle_system.t;
  ds_macro : Dataflow.Kernel.t -> Synthesize.macro_spec option;
}

let designs : (string, design_spec) Hashtbl.t = Hashtbl.create 8
let designs_mutex = Mutex.create ()

let register_design ?(macro_of_kernel = fun _ -> None) ~name build =
  Mutex.protect designs_mutex (fun () ->
      Hashtbl.replace designs name { ds_build = build; ds_macro = macro_of_kernel })

let registered_designs () =
  Mutex.protect designs_mutex (fun () ->
      List.sort String.compare
        (Hashtbl.fold (fun k _ acc -> k :: acc) designs []))

let find_design name =
  match Mutex.protect designs_mutex (fun () -> Hashtbl.find_opt designs name) with
  | Some d -> d
  | None ->
    Ocapi_error.fail Ocapi_error.Unsupported ~engine:"batch"
      "unknown design %S (registered: %s)" name
      (match registered_designs () with
      | [] -> "none"
      | ds -> String.concat ", " ds)

(* --- jobs ----------------------------------------------------------------- *)

type priority = Ocapi_campaign.priority = High | Normal | Low

type job =
  | Simulate of {
      sim_design : string;
      sim_engine : string;
      sim_cycles : int;
      sim_seed : int;
    }
  | Seu of {
      seu_design : string;
      seu_engine : string;
      seu_runs : int;
      seu_cycles : int;
      seu_seed : int;
    }
  | Stuck_at of {
      sa_design : string;
      sa_cycles : int;
      sa_seed : int;
      sa_max_faults : int option;
    }
  | Engine_sweep of { sw_design : string; sw_cycles : int }
  | Fuzz of {
      fu_seed : int;
      fu_count : int;
      fu_engines : string list option;
      fu_deep : bool;
      fu_shrink : bool;
    }
  | Custom of {
      cu_tag : string;
      cu_body : progress:(unit -> unit) -> Ocapi_obs.Json.t;
    }

type outcome =
  | Completed of {
      oc_json : Ocapi_obs.Json.t;
      oc_seconds : float;
      oc_queue_seconds : float;
      oc_dedup : bool;
    }
  | Failed of Ocapi_error.t
  | Cancelled

type status = Queued | Running | Done of outcome

type event =
  | Ev_submitted of { ev_label : string; ev_corr : string; ev_dedup : bool }
  | Ev_started of { ev_label : string; ev_corr : string }
  | Ev_finished of { ev_label : string; ev_corr : string; ev_outcome : outcome }

(* --- the async artifact writer -------------------------------------------- *)

(* A plain systhread: workers enqueue (path, bytes) and move on; the
   writer owns all file I/O.  Files land atomically, so a concurrent
   reader — the CI determinism gate diffing artifact trees — never sees
   a half-written report.  Stopping drains the queue first. *)
type writer = {
  wr_mutex : Mutex.t;
  wr_cond : Condition.t;
  wr_queue : (string * string) Queue.t;
  mutable wr_stop : bool;
  mutable wr_written : int;
  mutable wr_thread : Thread.t option;
}

let writer_loop w () =
  let rec loop () =
    Mutex.lock w.wr_mutex;
    while Queue.is_empty w.wr_queue && not w.wr_stop do
      Condition.wait w.wr_cond w.wr_mutex
    done;
    if Queue.is_empty w.wr_queue then Mutex.unlock w.wr_mutex
    else begin
      let path, data = Queue.pop w.wr_queue in
      Mutex.unlock w.wr_mutex;
      (try Ocapi_obs.write_file_atomic ~path data with Sys_error _ -> ());
      Mutex.protect w.wr_mutex (fun () -> w.wr_written <- w.wr_written + 1);
      loop ()
    end
  in
  loop ()

let writer_start () =
  let w =
    {
      wr_mutex = Mutex.create ();
      wr_cond = Condition.create ();
      wr_queue = Queue.create ();
      wr_stop = false;
      wr_written = 0;
      wr_thread = None;
    }
  in
  w.wr_thread <- Some (Thread.create (writer_loop w) ());
  w

let writer_push w path data =
  Mutex.protect w.wr_mutex (fun () ->
      Queue.push (path, data) w.wr_queue;
      Condition.broadcast w.wr_cond)

let writer_stop w =
  Mutex.protect w.wr_mutex (fun () ->
      w.wr_stop <- true;
      Condition.broadcast w.wr_cond);
  Option.iter Thread.join w.wr_thread;
  w.wr_thread <- None

(* --- service state -------------------------------------------------------- *)

(* An execution: what runs behind one of the core's jobs, and the
   handles waiting on it.  The core decides; this holds the closure and
   the outcome. *)
type exec = {
  ex_corr : string;
  ex_label : string;
  ex_artifact_file : string;
  mutable ex_run : (progress:(unit -> unit) -> Json.t) option;
      (* dropped on resolution, releasing the built design *)
  ex_submitted : float;
  mutable ex_outcome : outcome option;
  mutable ex_handles : handle list;
  mutable ex_queue_seconds : float;
}

and handle = {
  h_label : string;
  h_dedup : bool;
  h_deadline : float option;
  mutable h_cancelled : bool;
  h_kind : h_kind;
}

and h_kind = Attached of exec | Snapshot of outcome

type stats = {
  bs_submitted : int;
  bs_deduped : int;
  bs_executed : int;
  bs_completed : int;
  bs_failed : int;
  bs_timed_out : int;
  bs_cancelled : int;
  bs_artifacts_written : int;
  bs_dedup_hit_rate : float;
}

type t = {
  bt_mutex : Mutex.t;
  bt_work : Condition.t;
  bt_done : Condition.t;
  mutable bt_core : Ocapi_campaign.t;
  bt_execs : (string, exec) Hashtbl.t;  (* by correlation id *)
  bt_artifact_dir : string option;
  bt_writer : writer option;
  bt_on_event : (event -> unit) option;
  mutable bt_pool : Ocapi_parallel.Service.t option;
  mutable bt_shutdown : bool;
}

let locked t f = Mutex.protect t.bt_mutex f

(* Apply a transition (lock held); the result is fired once the lock is
   released. *)
let step t entry ev =
  t.bt_core <- Ocapi_campaign.apply t.bt_core ~now:(Unix.gettimeofday ()) entry;
  (t.bt_core, entry, ev)

let fire t notes =
  List.iter
    (fun (core, entry, ev) ->
      Ocapi_campaign.emit ~ns:"batch" core entry;
      Option.iter (fun f -> f ev) t.bt_on_event)
    notes

let live_interest exec =
  List.exists (fun h -> not h.h_cancelled) exec.ex_handles

(* The execution's effective deadline: the tightest among its live
   handles (a deduplicated submission may well be the impatient one). *)
let tightest_deadline exec =
  List.fold_left
    (fun acc h ->
      if h.h_cancelled then acc
      else
        match acc, h.h_deadline with
        | None, d | d, None -> d
        | Some a, Some b -> Some (Float.min a b))
    None exec.ex_handles

(* Resolve an execution (lock held).  Only a [Completed] outcome goes to
   the artifact writer, and only it dedups later submissions (the
   core's rule); a cancellation is recorded as a [cancelled] failure. *)
let finish_exec t exec outcome =
  let failed (code : Ocapi_error.code) message =
    Ocapi_campaign.J_failed
      {
        jf_corr = exec.ex_corr;
        jf_code = Ocapi_error.code_label code;
        jf_message = message;
      }
  in
  let entry =
    match outcome with
    | Completed c ->
      (match t.bt_writer, t.bt_artifact_dir with
      | Some w, Some dir ->
        writer_push w
          (Filename.concat dir exec.ex_artifact_file)
          (Json.to_string c.oc_json ^ "\n")
      | _ -> ());
      Ocapi_campaign.J_completed
        { jd_corr = exec.ex_corr; jd_artifact = exec.ex_artifact_file }
    | Failed d -> failed d.e_code d.e_message
    | Cancelled -> failed Cancelled ""
  in
  exec.ex_outcome <- Some outcome;
  exec.ex_run <- None;
  Condition.broadcast t.bt_done;
  step t entry
    (Ev_finished { ev_label = exec.ex_label; ev_corr = exec.ex_corr; ev_outcome = outcome })

let timeout_error label =
  Ocapi_error.make Ocapi_error.Timeout ~engine:"batch"
    (Printf.sprintf "job %s exceeded its wall-clock deadline" label)

(* --- worker side ---------------------------------------------------------- *)

(* The cooperative stop hook, threaded into the engine stepping loops
   as their [?progress] callback.  A raised [Ocapi_error] abandons the
   job between cycles/runs; the worker classifies it below. *)
let progress_check t exec () =
  let verdict =
    locked t (fun () ->
        if not (live_interest exec) then `Cancelled
        else
          match tightest_deadline exec with
          | Some d when Unix.gettimeofday () > d -> `Timeout
          | _ -> `Go)
  in
  match verdict with
  | `Go -> ()
  | `Timeout -> raise (Ocapi_error.Error (timeout_error exec.ex_label))
  | `Cancelled ->
    Ocapi_error.fail Ocapi_error.Cancelled ~engine:"batch"
      "job %s cancelled while running" exec.ex_label

let run_exec t exec run =
  let started = Unix.gettimeofday () in
  let result =
    match run ~progress:(progress_check t exec) with
    | json ->
      Completed
        {
          oc_json = json;
          oc_seconds = Unix.gettimeofday () -. started;
          oc_queue_seconds = exec.ex_queue_seconds;
          oc_dedup = false;
        }
    | exception Ocapi_error.Error d
      when d.Ocapi_error.e_code = Ocapi_error.Cancelled ->
      Cancelled
    | exception Ocapi_error.Error d -> Failed d
    | exception e -> (
      match Flow.classify_exn ~engine:"batch" e with
      | Some d -> Failed d
      | None ->
        Failed
          (Ocapi_error.make Ocapi_error.Internal ~engine:"batch"
             ~severity:Ocapi_error.Error
             (Printf.sprintf "job %s raised: %s" exec.ex_label
                (Printexc.to_string e))))
  in
  let note = locked t (fun () -> finish_exec t exec result) in
  fire t [ note ]

(* Queue waits span microseconds (idle worker) to seconds (saturated
   campaign); the default power-of-two telemetry buckets (1 .. 2^20)
   lump everything above a millisecond into a handful of cells, which
   wrecks the interpolated p50/p95.  A 1-2-5 decade ladder from 1 µs to
   10^8 µs keeps the quantile estimate honest across the whole range. *)
let queue_wait_buckets =
  [|
    1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1e3; 2e3; 5e3; 1e4; 2e4; 5e4;
    1e5; 2e5; 5e5; 1e6; 2e6; 5e6; 1e7; 2e7; 5e7; 1e8;
  |]

let set_depth_gauge t =
  if Ocapi_obs.enabled () then
    Ocapi_obs.set_gauge "batch.queue.depth"
      (float_of_int (Ocapi_campaign.queued t.bt_core))

(* Start the core's next job, resolving dead ones (cancelled or expired
   while queued) on the way.  Lock held; [notes] collects what to fire. *)
let rec dequeue_ready t notes =
  let now = Unix.gettimeofday () in
  match Ocapi_campaign.next t.bt_core ~now with
  | None -> None
  | Some job -> (
    let exec = Hashtbl.find t.bt_execs job.jb_corr in
    let resolve outcome =
      notes := finish_exec t exec outcome :: !notes;
      dequeue_ready t notes
    in
    if not (live_interest exec) then resolve Cancelled
    else
      match tightest_deadline exec with
      | Some d when now > d -> resolve (Failed (timeout_error exec.ex_label))
      | _ ->
        notes :=
          step t
            (J_started { jt_corr = exec.ex_corr; jt_attempt = 1 })
            (Ev_started { ev_label = exec.ex_label; ev_corr = exec.ex_corr })
          :: !notes;
        exec.ex_queue_seconds <- now -. exec.ex_submitted;
        set_depth_gauge t;
        if Ocapi_obs.enabled () then
          Ocapi_obs.observe ~buckets:queue_wait_buckets "batch.queue.wait_us"
            (exec.ex_queue_seconds *. 1e6);
        (* Only a resolved execution has dropped its closure. *)
        Some (exec, Option.get exec.ex_run))

let pull t () =
  let notes = ref [] in
  let next =
    locked t (fun () ->
        let rec wait () =
          match dequeue_ready t notes with
          | Some _ as next -> next
          | None ->
            if t.bt_shutdown && Ocapi_campaign.queued t.bt_core = 0 then None
            else begin
              Condition.wait t.bt_work t.bt_mutex;
              wait ()
            end
        in
        wait ())
  in
  fire t (List.rev !notes);
  Option.map (fun (exec, run) () -> run_exec t exec run) next

(* --- lifecycle ------------------------------------------------------------ *)

let create ?(domains = 1) ?artifact_dir ?on_event () =
  if domains < 1 then invalid_arg "Ocapi_batch.create: domains < 1";
  Option.iter Ocapi_obs.mkdir_p artifact_dir;
  let t =
    {
      bt_mutex = Mutex.create ();
      bt_work = Condition.create ();
      bt_done = Condition.create ();
      bt_core = Ocapi_campaign.empty;
      bt_execs = Hashtbl.create 32;
      bt_artifact_dir = artifact_dir;
      bt_writer = Option.map (fun _ -> writer_start ()) artifact_dir;
      bt_on_event = on_event;
      bt_pool = None;
      bt_shutdown = false;
    }
  in
  t.bt_pool <- Some (Ocapi_parallel.Service.start ~domains ~pull:(pull t) ());
  t

let shutdown t =
  locked t (fun () ->
      t.bt_shutdown <- true;
      Condition.broadcast t.bt_work);
  Option.iter Ocapi_parallel.Service.join t.bt_pool;
  Option.iter writer_stop t.bt_writer

(* --- requests and their preparation ---------------------------------------- *)

type request = {
  rq_job : job;
  rq_priority : priority;
  rq_timeout : float option;
  rq_label : string option;
}

type prepared = {
  pr_key : string;
  pr_corr : string;
  pr_label : string;
  pr_artifact_file : string;
  pr_run : progress:(unit -> unit) -> Json.t;
}

let require_pos what n =
  if n <= 0 then
    invalid_arg (Printf.sprintf "Ocapi_batch.submit: %s must be > 0" what)

(* A prepared job: its dedup key (a [Flow.Cache.key_of] fingerprint
   with the job kind and parameters folded into the engine component),
   a display label, an artifact slug, and the closure a worker runs.
   The design is built here, in the submitting domain, and owned by
   the execution from then on. *)
let prepare_request r =
  let slugify s =
    String.map (fun c -> if c = ':' || c = '/' || c = ' ' then '-' else c) s
  in
  let key, default_label, run =
    match r.rq_job with
    | Simulate { sim_design; sim_engine; sim_cycles; sim_seed } ->
      require_pos "cycles" sim_cycles;
      let d = find_design sim_design in
      let engine = Ocapi_engine.name_of (Ocapi_engine.get sim_engine) in
      let sys = d.ds_build () in
      let key =
        Flow.Cache.key_of
          ~engine:("batch-sim+" ^ engine)
          ~seed:sim_seed sys ~cycles:sim_cycles
      in
      ( key,
        Printf.sprintf "simulate:%s:%s:c%d" sim_design engine sim_cycles,
        fun ~progress ->
          Flow.simulate ~engine ~seed:sim_seed ~corr:(Ocapi_campaign.corr_of_key key)
            ~progress:(fun _ -> progress ())
            sys ~cycles:sim_cycles
          |> Flow.simulate_result_json ~engine ~cycles:sim_cycles )
    | Seu { seu_design; seu_engine; seu_runs; seu_cycles; seu_seed } ->
      require_pos "cycles" seu_cycles;
      require_pos "runs" seu_runs;
      let d = find_design seu_design in
      let engine = Ocapi_engine.name_of (Ocapi_engine.get seu_engine) in
      let sys = d.ds_build () in
      ( Flow.Cache.key_of
          ~engine:
            (Printf.sprintf "batch-seu+%s+runs%d" engine seu_runs)
          ~seed:seu_seed sys ~cycles:seu_cycles,
        Printf.sprintf "seu:%s:%s:r%d" seu_design engine seu_runs,
        fun ~progress ->
          Ocapi_fault.seu_campaign ~engine ~runs:seu_runs ~seed:seu_seed
            ~progress:(fun _ -> progress ())
            sys ~cycles:seu_cycles
          |> Ocapi_fault.seu_report_json )
    | Stuck_at { sa_design; sa_cycles; sa_seed; sa_max_faults } ->
      require_pos "cycles" sa_cycles;
      let d = find_design sa_design in
      let sys = d.ds_build () in
      ( Flow.Cache.key_of
          ~engine:
            (Printf.sprintf "batch-sa+mf%s"
               (match sa_max_faults with
               | Some n -> string_of_int n
               | None -> "-"))
          ~seed:sa_seed sys ~cycles:sa_cycles,
        Printf.sprintf "stuck-at:%s:c%d" sa_design sa_cycles,
        fun ~progress ->
          Ocapi_fault.stuck_at_system ?max_faults:sa_max_faults ~seed:sa_seed
            ~macro_of_kernel:d.ds_macro
            ~progress:(fun _ -> progress ())
            sys ~cycles:sa_cycles
          |> Ocapi_fault.stuck_report_json )
    | Engine_sweep { sw_design; sw_cycles } ->
      require_pos "cycles" sw_cycles;
      let d = find_design sw_design in
      let sys = d.ds_build () in
      ( Flow.Cache.key_of
          ~engine:
            ("batch-sweep+" ^ String.concat "," (Ocapi_engine.names ()))
          ~seed:0 sys ~cycles:sw_cycles,
        Printf.sprintf "engine-sweep:%s:c%d" sw_design sw_cycles,
        fun ~progress ->
          Flow.engine_disagreements ~progress:(fun _ -> progress ()) sys
            ~cycles:sw_cycles
          |> Flow.mismatches_json ~cycles:sw_cycles )
    | Fuzz { fu_seed; fu_count; fu_engines; fu_deep; fu_shrink } ->
      require_pos "count" fu_count;
      (* No single design to fingerprint: the campaign's identity is its
         parameters (the generator is pure in them), so the dedup key is
         a literal string, Custom-style.  Engines are resolved here so a
         bad roster fails at submit, not on a worker. *)
      let engines =
        match fu_engines with
        | None -> Ocapi_diff.default_engines ()
        | Some names ->
          List.map
            (fun n -> Ocapi_engine.name_of (Ocapi_engine.get n))
            names
      in
      ( Printf.sprintf "batch-fuzz|seed%d|count%d|%s|deep%b|shrink%b" fu_seed
          fu_count (String.concat "," engines) fu_deep fu_shrink,
        Printf.sprintf "fuzz:s%d:n%d" fu_seed fu_count,
        fun ~progress ->
          Ocapi_diff.fuzz ~engines ~deep:fu_deep ~shrink_failures:fu_shrink
            ~progress:(fun _ -> progress ())
            ~seed:fu_seed ~count:fu_count ()
          |> Ocapi_diff.report_json )
    | Custom { cu_tag; cu_body } ->
      ("batch-custom|" ^ cu_tag, "custom:" ^ cu_tag, cu_body)
  in
  let label = Option.value r.rq_label ~default:default_label in
  {
    pr_key = key;
    pr_corr = Ocapi_campaign.corr_of_key key;
    pr_label = label;
    pr_artifact_file =
      Printf.sprintf "%s-%s.json" (slugify label)
        (String.sub (Digest.to_hex (Digest.string key)) 0 8);
    pr_run = run;
  }

(* --- submission ----------------------------------------------------------- *)

let submit ?(priority = Normal) ?timeout ?label t job =
  (match timeout with
  | Some s when s <= 0.0 ->
    invalid_arg "Ocapi_batch.submit: timeout must be > 0"
  | _ -> ());
  (* Build and fingerprint outside the lock: design construction is
     pure of service state, and a slow build must not stall workers. *)
  let p =
    prepare_request
      { rq_job = job; rq_priority = priority; rq_timeout = timeout; rq_label = label }
  in
  let now = Unix.gettimeofday () in
  let handle dedup kind =
    {
      h_label = p.pr_label;
      h_dedup = dedup;
      h_deadline = Option.map (fun s -> now +. s) timeout;
      h_cancelled = false;
      h_kind = kind;
    }
  in
  let h, note =
    locked t (fun () ->
        if t.bt_shutdown then
          invalid_arg "Ocapi_batch.submit: the service is shut down";
        (* Batch requests carry closures, not manifest objects: the
           journal-shaped request holds only what the core reads. *)
        let entry =
          Ocapi_campaign.admit t.bt_core ~corr:p.pr_corr ~key:p.pr_key
            ~label:p.pr_label ~artifact:p.pr_artifact_file
            ~request:
              (Json.Obj
                 [ ("priority", Json.String (Ocapi_campaign.priority_label priority)) ])
        in
        let dedup =
          match entry with J_submitted { js_dedup; _ } -> js_dedup | _ -> false
        in
        let note =
          step t entry
            (Ev_submitted { ev_label = p.pr_label; ev_corr = p.pr_corr; ev_dedup = dedup })
        in
        let h =
          if dedup then begin
            let exec = Hashtbl.find t.bt_execs p.pr_corr in
            match exec.ex_outcome with
            | Some (Completed c) ->
              handle true
                (Snapshot (Completed { c with oc_dedup = true; oc_queue_seconds = 0.0 }))
            | _ ->
              let h = handle true (Attached exec) in
              exec.ex_handles <- h :: exec.ex_handles;
              h
          end
          else begin
            let exec =
              {
                ex_corr = p.pr_corr;
                ex_label = p.pr_label;
                ex_artifact_file = p.pr_artifact_file;
                ex_run = Some p.pr_run;
                ex_submitted = now;
                ex_outcome = None;
                ex_handles = [];
                ex_queue_seconds = 0.0;
              }
            in
            let h = handle false (Attached exec) in
            exec.ex_handles <- [ h ];
            Hashtbl.replace t.bt_execs p.pr_corr exec;
            set_depth_gauge t;
            Condition.signal t.bt_work;
            h
          end
        in
        (h, note))
  in
  fire t [ note ];
  h

(* --- handle queries ------------------------------------------------------- *)

let label_of h = h.h_label

(* The outcome as seen through one handle: a cancelled handle resolves
   [Cancelled] even when the shared execution went on for others, and
   a deduplicated handle sees the [oc_dedup] flag set. *)
let handle_view h outcome =
  if h.h_cancelled then Cancelled
  else
    match outcome with
    | Completed c when h.h_dedup && not c.oc_dedup ->
      Completed { c with oc_dedup = true }
    | o -> o

let status t h =
  locked t (fun () ->
      match h.h_kind with
      | Snapshot o -> Done (handle_view h o)
      | Attached exec -> (
        match exec.ex_outcome with
        | Some o -> Done (handle_view h o)
        | None -> (
          match Ocapi_campaign.find t.bt_core exec.ex_corr with
          | Some { Ocapi_campaign.jb_phase = Running _; _ } ->
            Running (* a cancelled handle's job may still be winding down *)
          | _ -> if h.h_cancelled then Done Cancelled else Queued)))

let await t h =
  locked t (fun () ->
      match h.h_kind with
      | Snapshot o -> handle_view h o
      | Attached exec -> (
        while Option.is_none exec.ex_outcome && not h.h_cancelled do
          Condition.wait t.bt_done t.bt_mutex
        done;
        match exec.ex_outcome with
        | Some o -> handle_view h o
        | None -> Cancelled))

let cancel t h =
  let cancelled =
    locked t (fun () ->
        match h.h_kind with
        | Attached { ex_outcome = None; _ } when not h.h_cancelled ->
          h.h_cancelled <- true;
          (* A queued execution nobody wants any more is resolved when
             it reaches the head of the queue; a running one is stopped
             by its next [progress] check. *)
          Condition.broadcast t.bt_done;
          true
        | _ -> false)
  in
  if cancelled && Ocapi_obs.enabled () then Ocapi_obs.count "batch.handle.cancelled";
  cancelled

let artifact_path t h =
  match h.h_kind with
  | Snapshot _ -> None
  | Attached exec ->
    Option.map (fun dir -> Filename.concat dir exec.ex_artifact_file) t.bt_artifact_dir

let stats t =
  locked t (fun () ->
      let n = Ocapi_campaign.count t.bt_core in
      let submitted = n "submitted" + n "deduped" in
      let cancelled = n "failed:cancelled" in
      {
        bs_submitted = submitted;
        bs_deduped = n "deduped";
        bs_executed = n "started";
        bs_completed = n "completed";
        bs_failed = n "failed" - cancelled;
        bs_timed_out = n "failed:timeout";
        bs_cancelled = cancelled;
        bs_artifacts_written =
          (match t.bt_writer with Some w -> w.wr_written | None -> 0);
        bs_dedup_hit_rate =
          (if submitted = 0 then 0.0
           else float_of_int (n "deduped") /. float_of_int submitted);
      })

(* --- manifests ------------------------------------------------------------ *)

let request_of_json json =
  let open Ocapi_campaign in
  let ( let* ) = Result.bind in
  let* kind = need string_field "kind" json in
  (* [design] is required by every design-bound kind, but a fuzz
     campaign generates its own designs. *)
  let design = need string_field "design" json in
  let* engine = string_field "engine" json in
  let* cycles = int_field "cycles" json in
  let* runs = int_field "runs" json in
  let* seed = int_field "seed" json in
  let* count = int_field "count" json in
  let* engines = strings_field "engines" json in
  let* deep = bool_field "deep" json in
  let* shrink = bool_field "shrink" json in
  let* max_faults = int_field "max_faults" json in
  let* timeout = number_field "timeout" json in
  let* label = string_field "label" json in
  let* priority = priority_of_request json in
  let seed = Option.value seed ~default:1 in
  let* job =
    match kind with
    | "simulate" ->
      let* design = design in
      Ok
        (Simulate
           {
             sim_design = design;
             sim_engine = Option.value engine ~default:"interp";
             sim_cycles = Option.value cycles ~default:200;
             sim_seed = seed;
           })
    | "seu" ->
      let* design = design in
      Ok
        (Seu
           {
             seu_design = design;
             seu_engine = Option.value engine ~default:"compiled";
             seu_runs = Option.value runs ~default:1000;
             seu_cycles = Option.value cycles ~default:64;
             seu_seed = seed;
           })
    | "stuck-at" | "stuck_at" ->
      let* design = design in
      Ok
        (Stuck_at
           {
             sa_design = design;
             sa_cycles = Option.value cycles ~default:64;
             sa_seed = seed;
             sa_max_faults = max_faults;
           })
    | "engine-sweep" | "sweep" ->
      let* design = design in
      Ok
        (Engine_sweep
           { sw_design = design; sw_cycles = Option.value cycles ~default:200 })
    | "fuzz" ->
      Ok
        (Fuzz
           {
             fu_seed = seed;
             fu_count = Option.value count ~default:25;
             fu_engines = engines;
             fu_deep = Option.value deep ~default:false;
             fu_shrink = Option.value shrink ~default:true;
           })
    | other -> Error (Printf.sprintf "unknown job kind %S" other)
  in
  Ok { rq_job = job; rq_priority = priority; rq_timeout = timeout; rq_label = label }

let request_of_line = Ocapi_campaign.parse_line request_of_json
let read_manifest path = Ocapi_campaign.read_manifest path request_of_json

let submit_request t r =
  submit ~priority:r.rq_priority ?timeout:r.rq_timeout ?label:r.rq_label t
    r.rq_job
