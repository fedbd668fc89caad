(** The supervised campaign executor: worker {e processes}, retry with
    seeded backoff, and a crash-recoverable write-ahead job journal.

    One core, two executors: the job lifecycle — priority and FIFO
    order, dedup, the retry budget and poisoning, correlation ids,
    lifecycle events — is {!Ocapi_campaign}'s, shared with the
    in-process executor {!Ocapi_batch}.  [Ocapi_batch] runs a campaign
    on the domains of one process: fast, and fragile — a segfaulting
    engine, an OOM-killed worker, a hung job or a Ctrl-C loses the
    campaign.  This module runs the same jobs (the same manifests, the
    same dedup keys via {!Ocapi_batch.prepare_request}, the same
    canonical artifact bytes) in independent worker processes under
    one supervising server:

    - {b Process isolation}: the server ([ocapi serve]) spawns
      [ocapi worker] subprocesses, one job attempt per process.  A
      worker that crashes, is killed, or stops heartbeating takes down
      only its own attempt; the server observes the death via
      [waitpid] and the heartbeat pipe and records a crash, which the
      core retries after {!Ocapi_campaign.backoff_delay} or poisons
      once {!config.cf_retries} attempts are spent.
    - {b Write-ahead journal}: every transition ({!Ocapi_campaign.entry})
      is appended to [state_dir/journal.jsonl] {e before} it is
      applied.  On restart {!Ocapi_campaign.replay} folds the journal
      back into the core state, so a server crash (or kill -9) loses no
      queue state and finished work is never re-executed — across
      restarts and across client populations sharing one state
      directory.
    - {b Graceful degradation}: SIGTERM/SIGINT enter drain mode (finish
      running jobs, launch nothing new, journal everything, exit); a
      second signal aborts hard — which is safe, because the journal
      replays.  The pending queue is bounded ({!config.cf_max_queue});
      submissions beyond it are rejected with code [Overloaded].
    - {b Chaos mode}: a seeded kill schedule ({!chaos}) SIGKILLs
      first-attempt workers at random, and per-job [{"chaos":
      "crash"|"hang"}] manifest fields make a worker self-destruct or
      hang silently.  Because artifacts are canonical bytes written
      atomically by the worker that finishes the job, a chaos run
      (worker kills, server kill, restart) converges to an artifact
      tree byte-identical to an undisturbed serial run — the property
      [scripts/crash_recovery_gate.sh] checks in CI. *)

(** {1 The job journal}

    JSONL, one {!Ocapi_campaign.entry_json} object per line, appended
    and flushed before the transition it records is applied. *)

type journal

(** [journal_open path] opens (creating if missing) the journal for
    appending. *)
val journal_open : string -> journal

val journal_append : journal -> Ocapi_campaign.entry -> unit
val journal_close : journal -> unit

(** [journal_load path] reads a journal back.  A missing file is
    [Ok []]; blank lines and unknown event kinds are skipped; an
    unparsable {e final} line is dropped (the crash-interrupted
    append); an unparsable interior line is an error. *)
val journal_load : string -> (Ocapi_campaign.entry list, string) result

(** The state a restarting server resumes from:
    {!Ocapi_campaign.replay} seen through {!Ocapi_campaign.recovered}. *)
val replay : Ocapi_campaign.entry list -> Ocapi_campaign.recovered

(** {1 Configuration} *)

(** Seeded chaos injection: when configured, each {e first} attempt of
    a job is, with probability [ch_kill_prob], scheduled to be
    SIGKILLed between 0 and [ch_kill_delay] seconds after launch.
    Retried attempts are never chaos-killed, so every job still
    converges — chaos exercises the recovery machinery, not the retry
    budget. *)
type chaos = { ch_seed : int; ch_kill_prob : float; ch_kill_delay : float }

type config = {
  cf_workers : int;  (** concurrent worker processes *)
  cf_state_dir : string;  (** journal (and any service state) home *)
  cf_artifact_dir : string;
  cf_worker_cmd : string list;
      (** argv prefix of a worker; the server appends
          [--request JSON --artifact PATH] (and [--timeout],
          [--cache-dir]).  Default: [[Sys.executable_name; "worker"]] —
          the CLI re-invoking itself. *)
  cf_retries : int;  (** attempt budget per job (>= 1) *)
  cf_backoff_base : float;
  cf_backoff_cap : float;
  cf_backoff_seed : int;
  cf_job_timeout : float option;
      (** default cooperative per-job timeout (seconds), applied when a
          request carries none; enforced inside the worker *)
  cf_kill_grace : float;
      (** wall-clock slack beyond the cooperative timeout before the
          server's kill(9) backstop fires on a worker that ignored it *)
  cf_heartbeat_timeout : float;
      (** kill(9) a worker silent for this long (its heartbeat thread
          prints once a second, so this bounds detection of a truly
          wedged process) *)
  cf_max_queue : int;  (** pending-queue bound; beyond it: [Overloaded] *)
  cf_cache_dir : string option;
      (** when set, workers enable {!Flow.Cache} on this directory *)
  cf_chaos : chaos option;
  cf_die_after : int option;
      (** crash-testing failpoint: SIGKILL {e the server itself} after
          this many journaled completions *)
  cf_on_line : (string -> unit) option;  (** streaming progress lines *)
}

(** Defaults: 2 workers, [_generated/service] state,
    [_generated/service/artifacts] artifacts, CLI-re-invoking worker
    command, 3 attempts, 0.5 s base / 30 s cap backoff (seed 1), no
    cooperative timeout, 5 s kill grace, 30 s heartbeat timeout, queue
    bound 1024, no cache, no chaos, no failpoint, silent. *)
val default_config : config

(** {1 Serving} *)

type summary = {
  sm_submitted : int;  (** manifest submissions (not replayed jobs) *)
  sm_deduped : int;
      (** submissions served by the journal's completed store or by an
          already-queued execution *)
  sm_recovered : int;  (** pending jobs requeued by journal replay *)
  sm_completed : int;
  sm_failed : int;  (** terminal failures, including poisoned jobs *)
  sm_poisoned : int;  (** subset of [sm_failed] with [Retries_exhausted] *)
  sm_rejected : int;  (** [Overloaded] backpressure rejections *)
  sm_crashes : int;  (** worker deaths observed (incl. chaos/backstop) *)
  sm_retries : int;  (** requeues after crashes *)
  sm_chaos_kills : int;
  sm_drained : bool;  (** a signal drained the service with work left *)
  sm_aborted : bool;  (** a second signal aborted it mid-flight *)
  sm_seconds : float;
}

(** [serve config ~requests] runs the service until the queue drains
    (or a signal drains/aborts it): replays the journal, admits
    [requests] (raw manifest objects — unknown fields such as ["chaos"]
    ride along into the journal and the worker) with one admission
    event each, in order, supervises up to [cf_workers] worker
    processes, and returns the summary.  Installs SIGTERM/SIGINT
    handlers for the duration.  Lifecycle events are
    {!Ocapi_campaign.emit}'s, joined on the same correlation ids as the
    batch executor and the trace spans. *)
val serve : config -> requests:Ocapi_obs.Json.t list -> summary

(** {1 The worker side} *)

(** Exit code of a worker that ran its job and produced a {e
    structured} failure (printed as a [fail {...}] line on stdout);
    exit 0 means the artifact was written.  Anything else — a signal, a
    segfault, an OOM kill, a nonzero exit without the [fail] protocol —
    is a worker crash, retried by the server. *)
val exit_failed : int

(** [worker_main ~request ~artifact ()] is the body of [ocapi worker]:
    parse the manifest object, build and run the job
    ({!Ocapi_batch.prepare_request}), heartbeat on stdout ([hb] lines,
    every [heartbeat_every] seconds from a dedicated thread, so even a
    compute-bound job stays observable), enforce the cooperative
    [timeout] through the progress hook, and write the canonical
    artifact bytes atomically (tmp + rename) to [artifact].  Returns
    the process exit code (0, {!exit_failed}).

    Chaos failpoints, read from the request's ["chaos"] field:
    ["crash"] SIGKILLs the process after the job starts (never writes
    the artifact); ["hang"] sleeps forever without heartbeats, so the
    server's backstop must kill it. *)
val worker_main :
  ?timeout:float ->
  ?heartbeat_every:float ->
  ?cache_dir:string ->
  request:Ocapi_obs.Json.t ->
  artifact:string ->
  unit ->
  int

(** {1 Manifests} *)

(** [read_manifest path] is {!Ocapi_campaign.read_manifest} keeping
    the objects raw: the journal stores them verbatim and service-only
    fields (["chaos"]) survive the round trip. *)
val read_manifest : string -> (Ocapi_obs.Json.t list, string) result
