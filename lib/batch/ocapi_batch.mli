(** The in-process campaign executor: many simulation and
    fault-campaign requests on one bounded domain pool, with async
    artifact writing.

    A verification campaign over a design is dozens to thousands of
    requests — simulate this configuration, sweep the engines, run the
    SEU and stuck-at campaigns — and they want to be {e queued}, not
    typed.  One core, two executors: the job lifecycle — priority
    classes with FIFO order inside each, dedup, correlation ids,
    lifecycle events — is {!Ocapi_campaign}'s, shared with the
    supervised process executor {!Ocapi_service}.  This module is the
    in-process executor that drives it:

    - {b Jobs are data} ({!job}): a simulate request, an SEU or
      stuck-at campaign, an engine-disagreement sweep, a fuzz campaign
      or a custom thunk, referencing designs by registry name
      ({!register_design}).  Each is fingerprinted through
      {!Flow.Cache.key_of} (design digest, stimuli, parameters, seed);
      the core dedups on that key, so N identical submissions cost one
      execution and every handle resolves with the shared result
      (flagged [oc_dedup]).
    - {b Execution} is a bounded {!Ocapi_parallel.Service} domain pool
      ([domains] at {!create}), pulling jobs in the core's order.
    - {b Timeouts and cancellation} are cooperative and per handle: the
      running job's [progress] hook (threaded down to the engine
      stepping loop) raises a structured {!Ocapi_error.t} with code
      [Timeout] or [Cancelled]; queued jobs cancel or time out without
      running at all.  Nothing hangs and nothing is killed mid-effect.
    - {b Artifacts} (the canonical JSON report of each completed
      execution) are handed to a dedicated writer thread and written
      atomically; {!shutdown} blocks until the files are on disk.

    Determinism: an artifact contains only the job's canonical report —
    the same bytes the CLI's [--json] renderings print — never wall
    times or scheduling accidents, so a manifest run with [domains=8]
    writes bit-identical artifacts to a serial run, and to
    {!Ocapi_service} on the same manifest.  Timing lives in the
    per-handle {!outcome} and in telemetry ([batch.queue.wait_us],
    [batch.queue.depth], [batch.job.*] counters) only. *)

(** {1 Design registry}

    Jobs name designs; the registry maps names to builders.  A builder
    must be deterministic — the job key fingerprints the system it
    returns, and dedup across submissions relies on two builds hashing
    alike. *)

val register_design :
  ?macro_of_kernel:(Dataflow.Kernel.t -> Synthesize.macro_spec option) ->
  name:string ->
  (unit -> Cycle_system.t) ->
  unit

(** {1 Jobs} *)

type priority = Ocapi_campaign.priority = High | Normal | Low

type job =
  | Simulate of {
      sim_design : string;
      sim_engine : string;  (** engine registry name or alias *)
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
      fu_seed : int;  (** campaign seed; per-design seeds derive from it *)
      fu_count : int;  (** fresh generated designs to check *)
      fu_engines : string list option;
          (** engine roster ([None] = {!Ocapi_diff.default_engines}) *)
      fu_deep : bool;  (** also run SEU / stuck-at cross-checks *)
      fu_shrink : bool;  (** shrink failing designs to reproducers *)
    }
      (** A differential fuzz campaign ({!Ocapi_diff.fuzz}).  Unlike the
          other kinds it references no registered design — the campaign
          generates its own — so its dedup key is its parameter tuple
          and its artifact is the canonical fuzz report. *)
  | Custom of {
      cu_tag : string;
          (** dedup key: identical tags coalesce to one execution *)
      cu_body : progress:(unit -> unit) -> Ocapi_obs.Json.t;
          (** runs on a worker domain; must call [progress] at
              reasonable intervals — it raises to signal timeout or
              cancellation *)
    }

(** How a handle resolved.  [oc_json] is the canonical report (see the
    determinism note above); [oc_dedup] is set on every handle that was
    served by another submission's execution; [oc_queue_seconds] is
    submit-to-start wait ([0.] when served from the completed table);
    [oc_seconds] the execution wall time. *)
type outcome =
  | Completed of {
      oc_json : Ocapi_obs.Json.t;
      oc_seconds : float;
      oc_queue_seconds : float;
      oc_dedup : bool;
    }
  | Failed of Ocapi_error.t
      (** includes timeouts: [e_code = Timeout], raised cooperatively *)
  | Cancelled

type status = Queued | Running | Done of outcome

(** {1 The service} *)

type t
type handle

(** Lifecycle events.  [ev_corr] is the job's correlation id
    ({!Ocapi_campaign.corr_of_key}), so it is identical for
    deduplicated submissions of the same work, stable across serial and
    parallel runs, and matches the [corr] on the {!Ocapi_obs.Events}
    lines and the [Flow.simulate] trace span of the execution. *)
type event =
  | Ev_submitted of { ev_label : string; ev_corr : string; ev_dedup : bool }
  | Ev_started of { ev_label : string; ev_corr : string }
  | Ev_finished of { ev_label : string; ev_corr : string; ev_outcome : outcome }

(** Histogram buckets used for the [batch.queue.wait_us] metric: a
    1-2-5 decade ladder from 1 µs to 10{^8} µs.  Exposed so callers
    deriving quantiles (the batch bench) can reuse them instead of the
    far coarser {!Ocapi_obs.observe} defaults. *)
val queue_wait_buckets : float array

(** [create ()] starts the worker pool (and, with [artifact_dir], the
    async writer thread; the directory is created if missing).
    [on_event] observes the job lifecycle — it is called from worker
    domains, outside the service lock, and must be thread-safe.
    @raise Invalid_argument on [domains < 1]. *)
val create :
  ?domains:int ->
  ?artifact_dir:string ->
  ?on_event:(event -> unit) ->
  unit ->
  t

(** [submit t job] enqueues [job] (default priority [Normal]) and
    returns its handle.  [timeout] is a wall-clock budget in seconds,
    measured from submission; when it expires the job fails with code
    [Timeout] whether still queued or already running.  [label] names
    the job in events and artifacts (default: derived from the job).

    The job's design is built and fingerprinted in the calling domain;
    on a key match with queued, running or completed work the
    submission attaches to it instead of enqueuing
    ({!Ocapi_campaign.admit}).

    @raise Ocapi_error.Error with code [Unsupported] on an unknown
    design or engine name.
    @raise Invalid_argument after {!shutdown}, or on a non-positive
    [cycles]/[runs] parameter or non-positive [timeout]. *)
val submit :
  ?priority:priority -> ?timeout:float -> ?label:string -> t -> job -> handle

(** [await t h] blocks until [h] resolves.  Total: every execution
    ends in an outcome (worker exceptions are classified through
    {!Flow.classify_exn} into [Failed]). *)
val await : t -> handle -> outcome

val status : t -> handle -> status

(** [cancel t h] withdraws this handle's interest; [false] if [h] was
    already cancelled or resolved.  The underlying execution is
    cancelled only when no other live handle shares it: a queued
    execution resolves [Cancelled] without running, a running one is
    asked to stop at its next [progress] call.  Other handles attached
    to the same execution are unaffected. *)
val cancel : t -> handle -> bool

val label_of : handle -> string

(** The artifact file this handle's execution writes on completion
    ([None] without an [artifact_dir] or for a completed-job hit).
    The file exists once the outcome is [Completed] and {!shutdown}
    has returned. *)
val artifact_path : t -> handle -> string option

(** Drain: wait for all queued and running jobs, stop the workers,
    merge their telemetry, flush and stop the writer.  Idempotent.
    Further {!submit}s raise; {!await}/{!status} keep answering.
    @raise Ocapi_parallel.Worker_error if a worker died outside a job
    body (a service bug, not a job failure). *)
val shutdown : t -> unit

(** {1 Statistics} *)

type stats = {
  bs_submitted : int;  (** submissions, including deduplicated ones *)
  bs_deduped : int;
      (** submissions served by a queued, running or completed execution *)
  bs_executed : int;  (** executions actually run on a worker *)
  bs_completed : int;  (** executions resolved [Completed] *)
  bs_failed : int;  (** executions resolved [Failed] (incl. timeouts) *)
  bs_timed_out : int;  (** subset of [bs_failed] with code [Timeout] *)
  bs_cancelled : int;  (** executions resolved [Cancelled] *)
  bs_artifacts_written : int;
  bs_dedup_hit_rate : float;  (** [bs_deduped / bs_submitted]; [0.] empty *)
}

val stats : t -> stats

(** {1 Manifests}

    The CLI's batch mode reads jobs from a JSONL manifest: one JSON
    object per line, e.g.

    {v
{"kind": "seu", "design": "hcor", "engine": "compiled",
 "runs": 200, "cycles": 48, "seed": 1, "priority": "high"}
    v}

    Fields: [kind] (["simulate"] | ["seu"] | ["stuck-at"] |
    ["engine-sweep"] | ["fuzz"]) is required, and so is [design] for
    every kind but ["fuzz"] (a fuzz campaign generates its own
    designs); [engine], [cycles], [runs], [seed], [max_faults],
    [priority] (["high"] | ["normal"] | ["low"]), [timeout] (seconds)
    and [label] are optional with the same defaults as the CLI.  A
    ["fuzz"] job additionally takes [count] (default 25), [engines] (a
    JSON list of engine names), [deep] and [shrink] (booleans).
    [Custom] jobs carry closures and have no manifest form. *)

type request = {
  rq_job : job;
  rq_priority : priority;
  rq_timeout : float option;
  rq_label : string option;
}

(** One manifest line to a request; [Error] carries a message naming
    the offending field.  Design and engine names are resolved at
    {!submit}, not here. *)
val request_of_json : Ocapi_obs.Json.t -> (request, string) result

val request_of_line : string -> (request, string) result

(** [read_manifest path] is {!Ocapi_campaign.read_manifest} with
    {!request_of_json}. *)
val read_manifest : string -> (request list, string) result

val submit_request : t -> request -> handle

(** {1 Preparation for external executors}

    The supervised executor ({!Ocapi_service}) runs jobs in {e worker
    processes} rather than on this module's domain pool, but shares the
    job vocabulary: the same manifests, the same dedup fingerprints,
    the same canonical artifact bytes.  [prepare_request] is that
    shared front half of {!submit}: it resolves the design and engine,
    builds and fingerprints the system (so the caller owns it from then
    on), and returns the job's identity plus the closure that executes
    it. *)

type prepared = {
  pr_key : string;  (** the {!Flow.Cache.key_of} dedup fingerprint *)
  pr_corr : string;  (** correlation id: short digest of [pr_key] *)
  pr_label : string;  (** display label (the request's, or derived) *)
  pr_artifact_file : string;
      (** artifact {e file name} (label slug + key digest), identical
          to the one {!submit} would write under its [artifact_dir] *)
  pr_run : progress:(unit -> unit) -> Ocapi_obs.Json.t;
      (** executes the job; [progress] is the cooperative stop hook *)
}

(** @raise Ocapi_error.Error with code [Unsupported] on an unknown
    design or engine name; [Invalid_argument] on non-positive
    parameters (the same validation as {!submit}). *)
val prepare_request : request -> prepared
