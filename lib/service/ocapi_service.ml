(* The supervised executor of the campaign core: one worker process per
   job attempt, heartbeat and kill policies, the on-disk journal, and
   chaos.  Queue order, dedup, the retry budget and lifecycle events are
   [Ocapi_campaign]'s.  See ocapi_service.mli for the architecture. *)

module Json = Ocapi_obs.Json
open Ocapi_campaign

(* --- the journal file ----------------------------------------------------- *)

type journal = { j_oc : out_channel }

let journal_open path =
  Ocapi_obs.mkdir_p (Filename.dirname path);
  { j_oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path }

(* One write + flush per entry: the write-ahead discipline is only as
   good as the journal's durability ordering. *)
let journal_append t e =
  output_string t.j_oc (Json.to_string (entry_json e));
  output_char t.j_oc '\n';
  flush t.j_oc

let journal_close t = close_out_noerr t.j_oc

let journal_load path =
  if not (Sys.file_exists path) then Ok []
  else
    let lines =
      String.split_on_char '\n' (Ocapi_obs.read_whole_file path)
      |> List.mapi (fun i l -> (i + 1, String.trim l))
      |> List.filter (fun (_, l) -> l <> "")
    in
    let last = List.length lines in
    let rec go k acc = function
      | [] -> Ok (List.rev acc)
      | (i, line) :: rest -> (
        match parse_line entry_of_json line with
        | Ok e -> go (k + 1) (e :: acc) rest
        (* A torn final line is the crash we are designed for; a torn
           interior line is corruption worth reporting.  Unknown event
           kinds (a newer server's journal) are skipped. *)
        | Error _ when k = last -> Ok (List.rev acc)
        | Error msg when String.starts_with ~prefix:"unknown event" msg ->
          go (k + 1) acc rest
        | Error msg -> Error (Printf.sprintf "journal line %d: %s" i msg))
    in
    go 1 [] lines

let replay entries = recovered (Ocapi_campaign.replay entries)

(* --- configuration -------------------------------------------------------- *)

type chaos = { ch_seed : int; ch_kill_prob : float; ch_kill_delay : float }

type config = {
  cf_workers : int;
  cf_state_dir : string;
  cf_artifact_dir : string;
  cf_worker_cmd : string list;
  cf_retries : int;
  cf_backoff_base : float;
  cf_backoff_cap : float;
  cf_backoff_seed : int;
  cf_job_timeout : float option;
  cf_kill_grace : float;
  cf_heartbeat_timeout : float;
  cf_max_queue : int;
  cf_cache_dir : string option;
  cf_chaos : chaos option;
  cf_die_after : int option;
  cf_on_line : (string -> unit) option;
}

let default_config =
  {
    cf_workers = 2;
    cf_state_dir = Filename.concat "_generated" "service";
    cf_artifact_dir = Filename.concat (Filename.concat "_generated" "service") "artifacts";
    cf_worker_cmd = [ Sys.executable_name; "worker" ];
    cf_retries = 3;
    cf_backoff_base = 0.5;
    cf_backoff_cap = 30.;
    cf_backoff_seed = 1;
    cf_job_timeout = None;
    cf_kill_grace = 5.;
    cf_heartbeat_timeout = 30.;
    cf_max_queue = 1024;
    cf_cache_dir = None;
    cf_chaos = None;
    cf_die_after = None;
    cf_on_line = None;
  }

type summary = {
  sm_submitted : int;
  sm_deduped : int;
  sm_recovered : int;
  sm_completed : int;
  sm_failed : int;
  sm_poisoned : int;
  sm_rejected : int;
  sm_crashes : int;
  sm_retries : int;
  sm_chaos_kills : int;
  sm_drained : bool;
  sm_aborted : bool;
  sm_seconds : float;
}

(* --- manifests ------------------------------------------------------------ *)

(* Raw objects: the journal stores them verbatim. *)
let read_manifest path = Ocapi_campaign.read_manifest path Result.ok

(* --- worker side ---------------------------------------------------------- *)

let exit_failed = 20

(* The worker's stdout is the supervision channel; the heartbeat thread
   and the main thread both write lines, so serialize them. *)
let out_mutex = Mutex.create ()

let out_line s =
  Mutex.lock out_mutex;
  print_string s;
  print_char '\n';
  flush stdout;
  Mutex.unlock out_mutex

let fail_line (err : Ocapi_error.t) =
  out_line
    ("fail "
    ^ Json.to_string
        (Json.Obj
           [
             ("code", Json.String (Ocapi_error.code_label err.e_code));
             ("message", Json.String err.e_message);
           ]))

let worker_main ?timeout ?(heartbeat_every = 1.0) ?cache_dir ~request ~artifact
    () =
  let chaos =
    match Json.member "chaos" request with
    | Some (Json.String s) -> Some s
    | _ -> None
  in
  if chaos = Some "hang" then begin
    (* A silently wedged worker: no heartbeats, no exit.  Exercises the
       server's heartbeat-timeout kill(9) backstop. *)
    let rec hang () : int =
      Unix.sleepf 3600.;
      hang ()
    in
    hang ()
  end
  else begin
    (match cache_dir with
    | Some dir -> Flow.Cache.enable ~dir ()
    | None -> ());
    match Ocapi_batch.request_of_json request with
    | Error msg ->
      fail_line (Ocapi_error.make Unsupported ~engine:"service" msg);
      exit_failed
    | Ok req ->
      let stop_hb = Atomic.make false in
      let hb =
        Thread.create
          (fun () ->
            while not (Atomic.get stop_hb) do
              out_line "hb";
              Thread.delay heartbeat_every
            done)
          ()
      in
      let finish code =
        Atomic.set stop_hb true;
        Thread.join hb;
        code
      in
      let result =
        try
          let prep = Ocapi_batch.prepare_request req in
          if chaos = Some "crash" then
            (* Self-destruct after the job has started: the supervisor
               sees a SIGKILLed worker, never a written artifact. *)
            Unix.kill (Unix.getpid ()) Sys.sigkill;
          let deadline =
            match (req.rq_timeout, timeout) with
            | Some t, _ | None, Some t -> Some (Unix.gettimeofday () +. t)
            | None, None -> None
          in
          let progress () =
            match deadline with
            | Some d when Unix.gettimeofday () > d ->
              raise
                (Ocapi_error.Error
                   (Ocapi_error.make Timeout ~engine:"service"
                      "job exceeded its wall-clock budget"))
            | _ -> ()
          in
          let json = prep.pr_run ~progress in
          (* Atomic publication: the artifact appears all-or-nothing, so
             a kill mid-write leaves no torn file and the server treats
             an existing artifact as proof of completion. *)
          Ocapi_obs.mkdir_p (Filename.dirname artifact);
          Ocapi_obs.write_file_atomic ~path:artifact (Json.to_string json ^ "\n");
          Ok ()
        with
        | Ocapi_error.Error e -> Error e
        | e -> (
          match Flow.classify_exn ~engine:"service" e with
          | Some err -> Error err
          | None ->
            Error
              (Ocapi_error.make Internal ~engine:"service" (Printexc.to_string e)))
      in
      (match result with
      | Ok () ->
        out_line "done";
        finish 0
      | Error err ->
        fail_line err;
        finish exit_failed)
  end

(* --- the supervisor ------------------------------------------------------- *)

type slot = {
  s_pid : int;
  s_fd : Unix.file_descr;
  s_job : job;
  s_attempt : int;
  s_deadline : float option;
  s_chaos_at : float option;
  s_buf : Buffer.t;
  mutable s_last_hb : float;
  mutable s_done : bool;
  mutable s_fail : (string * string) option;
  mutable s_killed : string option;
  mutable s_eof : bool;
}

(* OCaml signal numbers are its own negative encoding; name the ones a
   worker plausibly dies of. *)
let signal_name s =
  if s = Sys.sigkill then "sigkill"
  else if s = Sys.sigterm then "sigterm"
  else if s = Sys.sigint then "sigint"
  else if s = Sys.sigsegv then "sigsegv"
  else if s = Sys.sigabrt then "sigabrt"
  else if s = Sys.sigbus then "sigbus"
  else if s = Sys.sigfpe then "sigfpe"
  else string_of_int s

let status_string = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %s" (signal_name s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %s" (signal_name s)

let parse_fail_line line =
  let payload = String.sub line 5 (String.length line - 5) in
  match Json.of_string payload with
  | Ok j ->
    let get name fallback =
      match Json.member name j with Some (Json.String s) -> s | _ -> fallback
    in
    (get "code" "internal", get "message" "")
  | Error _ -> ("internal", "malformed failure report: " ^ payload)

let serve cf ~requests =
  if cf.cf_workers < 1 then invalid_arg "Ocapi_service.serve: workers < 1";
  if cf.cf_retries < 1 then invalid_arg "Ocapi_service.serve: retries < 1";
  if cf.cf_max_queue < 1 then invalid_arg "Ocapi_service.serve: max_queue < 1";
  Ocapi_obs.mkdir_p cf.cf_state_dir;
  Ocapi_obs.mkdir_p cf.cf_artifact_dir;
  let t0 = Unix.gettimeofday () in
  let say fmt =
    Printf.ksprintf
      (fun s -> match cf.cf_on_line with Some f -> f s | None -> ())
      fmt
  in
  let journal_path = Filename.concat cf.cf_state_dir "journal.jsonl" in
  (* Resume exactly where the last server stopped: the journal replays
     queued, running (requeued) and completed jobs. *)
  let state =
    match journal_load journal_path with
    | Ok entries -> ref (Ocapi_campaign.replay entries)
    | Error msg ->
      Ocapi_error.fail Internal ~engine:"service" "unreadable journal: %s" msg
  in
  let at_start = !state in
  let jr = journal_open journal_path in
  let artifact_path file = Filename.concat cf.cf_artifact_dir file in
  let label corr =
    match find !state corr with Some j -> " " ^ j.jb_label | None -> ""
  in
  (* Write-ahead: journal the transition, then apply it. *)
  let commit ?extra e =
    journal_append jr e;
    state := apply !state ~now:(Unix.gettimeofday ()) e;
    emit ~ns:"service" ?extra !state e;
    match e with
    | J_submitted { js_dedup = true; js_label; _ } -> say "dedup: %s" js_label
    | J_submitted _ -> ()
    | J_started s ->
      say "start [%s]%s (attempt %d/%d)" s.jt_corr (label s.jt_corr) s.jt_attempt
        cf.cf_retries
    | J_crashed c ->
      say "crash [%s]%s (attempt %d: %s)" c.jc_corr (label c.jc_corr) c.jc_attempt
        c.jc_reason
    | J_retried r ->
      say "retry [%s]%s in %.2fs (attempt %d/%d)" r.jr_corr (label r.jr_corr)
        r.jr_backoff r.jr_attempt cf.cf_retries
    | J_completed d -> say "done [%s]%s" d.jd_corr (label d.jd_corr)
    | J_failed f ->
      say "failed [%s]%s: %s: %s" f.jf_corr (label f.jf_corr) f.jf_code f.jf_message
    | J_rejected x -> say "rejected [%s] %s" x.jx_corr x.jx_label
  in
  let sm_recovered = queued !state in
  if sm_recovered > 0 then say "recovered %d pending job(s) from the journal" sm_recovered;
  let submit raw =
    let raw_corr () = corr_of_key ("raw|" ^ Json.to_string raw) in
    match Ocapi_batch.request_of_json raw with
    | Error msg ->
      commit
        ~extra:[ ("reason", Json.String msg) ]
        (J_rejected { jx_corr = raw_corr (); jx_label = msg })
    | Ok req -> (
      match
        try Ok (Ocapi_batch.prepare_request req) with
        | Ocapi_error.Error e -> Error e
        | Invalid_argument m ->
          Error (Ocapi_error.make Unsupported ~engine:"service" m)
      with
      | Error e ->
        commit
          (J_failed
             {
               jf_corr = raw_corr ();
               jf_code = Ocapi_error.code_label e.e_code;
               jf_message = e.e_message;
             })
      | Ok prep ->
        (* A "chaos"-marked request is a different job from its plain
           twin: fold the marker into the key so they never dedup into
           each other. *)
        let key, corr, artifact =
          match Json.member "chaos" raw with
          | Some (Json.String c) ->
            let key = prep.pr_key ^ "|chaos=" ^ c in
            (key, corr_of_key key, "chaos-" ^ prep.pr_artifact_file)
          | _ -> (prep.pr_key, prep.pr_corr, prep.pr_artifact_file)
        in
        (* A completed job dedups only while its artifact survives on
           disk; a deleted artifact means the work must be redone. *)
        let e =
          admit !state ~max_queue:cf.cf_max_queue
            ~still_done:(fun j -> Sys.file_exists (artifact_path j.jb_artifact))
            ~corr ~key ~label:prep.pr_label ~artifact ~request:raw
        in
        let extra =
          match e with
          | J_rejected _ ->
            [
              ("label", Json.String prep.pr_label);
              ("reason", Json.String (Ocapi_error.code_label Overloaded));
            ]
          | _ -> []
        in
        commit ~extra e)
  in
  List.iter submit requests;
  (* Supervision proper. *)
  let drain = Atomic.make false and abort = Atomic.make false in
  let on_signal _ =
    (* Handlers may run on any domain: only flip atomics here. *)
    if Atomic.get drain then Atomic.set abort true else Atomic.set drain true
  in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  let slots : slot option array = Array.make cf.cf_workers None in
  let chaos_rng =
    match cf.cf_chaos with
    | Some c -> Some (Random.State.make [| c.ch_seed |])
    | None -> None
  in
  let chaos_kills = ref 0 in
  let launch job =
    let attempt = job.jb_crashes + 1 in
    commit
      ~extra:[ ("attempt", Json.Int attempt) ]
      (J_started { jt_corr = job.jb_corr; jt_attempt = attempt });
    let argv =
      cf.cf_worker_cmd
      @ [
          "--request";
          Json.to_string job.jb_request;
          "--artifact";
          artifact_path job.jb_artifact;
        ]
      @ (match cf.cf_job_timeout with
        | Some t -> [ "--timeout"; Printf.sprintf "%g" t ]
        | None -> [])
      @
      match cf.cf_cache_dir with
      | Some d -> [ "--cache-dir"; d ]
      | None -> []
    in
    let prog = List.hd cf.cf_worker_cmd in
    let r, w = Unix.pipe () in
    Unix.set_nonblock r;
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    let pid = Unix.create_process prog (Array.of_list argv) devnull w Unix.stderr in
    Unix.close w;
    Unix.close devnull;
    let now = Unix.gettimeofday () in
    let deadline =
      match
        match number_field "timeout" job.jb_request with
        | Ok (Some t) -> Some t
        | _ -> cf.cf_job_timeout
      with
      | Some t -> Some (now +. t +. cf.cf_kill_grace)
      | None -> None
    in
    let chaos_at =
      match (chaos_rng, cf.cf_chaos) with
      | Some rng, Some c when attempt = 1 ->
        (* Chaos kills target first attempts only: a retried job is
           left alone, so every chaos run still converges. *)
        if Random.State.float rng 1.0 < c.ch_kill_prob then
          Some (now +. Random.State.float rng c.ch_kill_delay)
        else None
      | _ -> None
    in
    {
      s_pid = pid;
      s_fd = r;
      s_job = job;
      s_attempt = attempt;
      s_deadline = deadline;
      s_chaos_at = chaos_at;
      s_buf = Buffer.create 64;
      s_last_hb = now;
      s_done = false;
      s_fail = None;
      s_killed = None;
      s_eof = false;
    }
  in
  let handle_line sl line =
    sl.s_last_hb <- Unix.gettimeofday ();
    if line = "hb" then ()
    else if line = "done" then sl.s_done <- true
    else if String.starts_with ~prefix:"fail " line then
      sl.s_fail <- Some (parse_fail_line line)
  in
  let read_slot sl =
    let bytes = Bytes.create 4096 in
    let rec fill () =
      match Unix.read sl.s_fd bytes 0 4096 with
      | 0 -> sl.s_eof <- true
      | n ->
        Buffer.add_subbytes sl.s_buf bytes 0 n;
        fill ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill ()
    in
    fill ();
    let rec consume = function
      | [] -> ()
      | [ tail ] ->
        Buffer.clear sl.s_buf;
        Buffer.add_string sl.s_buf tail
      | line :: rest ->
        handle_line sl line;
        consume rest
    in
    consume (String.split_on_char '\n' (Buffer.contents sl.s_buf))
  in
  let kill_slot sl reason =
    (try Unix.kill sl.s_pid Sys.sigkill with Unix.Unix_error _ -> ());
    sl.s_killed <- Some reason
  in
  let classify sl status =
    let job = sl.s_job in
    (* "done" is printed only after the atomic rename, so the pair
       (done seen, artifact exists) is proof of completion even when
       our own chaos kill raced the worker's exit. *)
    if sl.s_done && Sys.file_exists (artifact_path job.jb_artifact) then begin
      commit (J_completed { jd_corr = job.jb_corr; jd_artifact = job.jb_artifact });
      match cf.cf_die_after with
      | Some n when count !state "completed" - count at_start "completed" >= n ->
        (* The crash-testing failpoint: die the way a real crash does —
           no cleanup, no drain — and let the journal prove itself. *)
        Unix.kill (Unix.getpid ()) Sys.sigkill
      | _ -> ()
    end
    else begin
      match (status, sl.s_fail, sl.s_killed) with
      | Unix.WEXITED c, Some (code, message), None when c = exit_failed ->
        (* A structured failure is the job's verdict, not the worker's:
           terminal, no retry. *)
        commit (J_failed { jf_corr = job.jb_corr; jf_code = code; jf_message = message })
      | status, _, killed ->
        let reason =
          match killed with Some r -> r | None -> status_string status
        in
        (* A chaos kill that raced a finished worker lands in the
           completed branch above; only a kill that actually cost an
           attempt counts here. *)
        if reason = "chaos" then begin
          incr chaos_kills;
          Ocapi_obs.count "service.chaos.kills"
        end;
        List.iter commit
          (crash ~retries:cf.cf_retries
             ~backoff:
               (backoff_delay ~base:cf.cf_backoff_base ~cap:cf.cf_backoff_cap
                  ~seed:cf.cf_backoff_seed ~corr:job.jb_corr)
             ~corr:job.jb_corr ~attempt:sl.s_attempt ~reason)
    end
  in
  let running () = Array.exists Option.is_some slots in
  let tick = 0.05 in
  let finished = ref false in
  let drained = ref false and aborted = ref false in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int;
      journal_close jr)
    (fun () ->
      while not !finished do
        (* 1. Fill free slots with ready work (unless draining). *)
        if not (Atomic.get drain) then begin
          let now = Unix.gettimeofday () in
          Array.iteri
            (fun i s ->
              if Option.is_none s then
                Option.iter
                  (fun job -> slots.(i) <- Some (launch job))
                  (next !state ~now))
            slots
        end;
        (* 2. Wait for worker output (or just pass time). *)
        let fds =
          Array.to_list slots
          |> List.filter_map (function
               | Some sl when not sl.s_eof -> Some sl.s_fd
               | _ -> None)
        in
        let readable =
          if Atomic.get abort then []
          else if fds = [] then begin
            (try Unix.sleepf tick
             with Unix.Unix_error (Unix.EINTR, _, _) -> ());
            []
          end
          else begin
            match Unix.select fds [] [] tick with
            | r, _, _ -> r
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
          end
        in
        Array.iter
          (function
            | Some sl when List.memq sl.s_fd readable -> read_slot sl
            | _ -> ())
          slots;
        (* 3. Kill policies: chaos schedule, deadline backstop, silent
           (heartbeat-less) workers. *)
        let now = Unix.gettimeofday () in
        Array.iter
          (function
            | Some sl when sl.s_killed = None ->
              (match sl.s_chaos_at with
              | Some t when now >= t -> kill_slot sl "chaos"
              | _ -> ());
              if sl.s_killed = None then begin
                match sl.s_deadline with
                | Some d when now >= d -> kill_slot sl "deadline"
                | _ -> ()
              end;
              if sl.s_killed = None && now -. sl.s_last_hb > cf.cf_heartbeat_timeout
              then kill_slot sl "heartbeat"
            | _ -> ())
          slots;
        (* 4. Reap and classify exits. *)
        Array.iteri
          (fun i osl ->
            match osl with
            | None -> ()
            | Some sl -> (
              match Unix.waitpid [ Unix.WNOHANG ] sl.s_pid with
              | 0, _ -> ()
              | _, status ->
                read_slot sl;
                Unix.close sl.s_fd;
                slots.(i) <- None;
                classify sl status
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
                read_slot sl;
                Unix.close sl.s_fd;
                slots.(i) <- None;
                classify sl (Unix.WEXITED 255)))
          slots;
        (* 5. Shutdown decisions. *)
        if Atomic.get abort then begin
          Array.iteri
            (fun i osl ->
              match osl with
              | None -> ()
              | Some sl ->
                (try Unix.kill sl.s_pid Sys.sigkill with Unix.Unix_error _ -> ());
                (try ignore (Unix.waitpid [] sl.s_pid)
                 with Unix.Unix_error _ -> ());
                Unix.close sl.s_fd;
                slots.(i) <- None)
            slots;
          aborted := true;
          finished := true;
          say "aborted: %d job(s) left journaled for the next run" (queued !state)
        end
        else if not (running ()) then begin
          if Atomic.get drain then begin
            drained := queued !state > 0;
            finished := true;
            if !drained then
              say "drained: %d job(s) left journaled for the next run" (queued !state)
          end
          else if queued !state = 0 then finished := true
        end
      done);
  let n kind = count !state kind - count at_start kind in
  {
    sm_submitted = List.length requests;
    sm_deduped = n "deduped";
    sm_recovered;
    sm_completed = n "completed";
    sm_failed = n "failed";
    sm_poisoned = n ("failed:" ^ Ocapi_error.code_label Retries_exhausted);
    sm_rejected = n "rejected";
    sm_crashes = n "crashed";
    sm_retries = n "retried";
    sm_chaos_kills = !chaos_kills;
    sm_drained = !drained;
    sm_aborted = !aborted;
    sm_seconds = Unix.gettimeofday () -. t0;
  }
