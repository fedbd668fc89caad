(** The campaign core: one job lifecycle, shared by both executors.

    A campaign is a stream of job submissions.  Whether the jobs then
    run on in-process domains ({!Ocapi_batch}) or in supervised worker
    processes ({!Ocapi_service}), their lifecycle is the same, and this
    module is its only implementation:

    - {b Order}: priority classes, FIFO inside each class, and a
      backoff readiness time for retried jobs ({!next}).
    - {b Dedup}: a submission whose dedup key matches a queued, running
      or completed job attaches to it instead of running again.  Only a
      [Completed] job dedups; a failed key can be submitted again
      ({!admit}).
    - {b Retry budget}: a crashed attempt is retried after a seeded
      backoff, or poisoned once the budget is spent ({!crash}).
    - {b Identity and events}: correlation ids ({!corr_of_key}),
      manifest lines ({!read_manifest}) and the lifecycle events of
      {!Ocapi_obs.Events} ({!emit}).

    The state is a pure value and the clock is an argument.  Its
    transitions are the journal entries ({!entry}): an executor decides
    an entry ({!admit}, {!crash}, or an outcome of its own), records it
    if it keeps a journal, and folds it in with {!apply}.  {!replay} is
    the same fold over a journal read back from disk. *)

module Json = Ocapi_obs.Json

(** {1 JSON fields}

    Typed readers of one member of a JSON object.  Each returns
    [Ok None] when the member is absent and [Error] naming the field
    when it has the wrong type. *)

type 'a field = string -> Json.t -> ('a option, string) result

val string_field : string field
val int_field : int field

(** An [Int] or a [Float]. *)
val number_field : float field

val bool_field : bool field
val strings_field : string list field

(** [need f name j] is [f name j] with an absent member an [Error]. *)
val need : 'a field -> string -> Json.t -> ('a, string) result

(** {1 Identity} *)

(** The correlation id: a 12-hex-digit digest of the dedup key.  It is
    the same for every submission of one piece of work, in every
    process and at any domain count, and it joins lifecycle events,
    trace spans and journal entries. *)
val corr_of_key : string -> string

type priority = High | Normal | Low

val priority_label : priority -> string

(** The ["priority"] member of a request object ([Normal] when
    absent). *)
val priority_of_request : Json.t -> (priority, string) result

(** {1 Manifests} *)

(** [parse_line parse line] parses one manifest line as JSON, then with
    [parse]. *)
val parse_line : (Json.t -> ('a, string) result) -> string -> ('a, string) result

(** [read_manifest path parse] reads a JSONL manifest, skipping blank
    lines and [#] comments.  [Error] messages carry the 1-based line
    number. *)
val read_manifest :
  string -> (Json.t -> ('a, string) result) -> ('a list, string) result

(** {1 Transitions}

    The journal schema, by ["ev"] field ({!entry_json}):
    {v
{"ev":"submitted","corr":C,"key":K,"label":L,"artifact":F,"dedup":B,"request":{...}}
{"ev":"started","corr":C,"attempt":N}
{"ev":"crashed","corr":C,"attempt":N,"reason":R}
{"ev":"retried","corr":C,"attempt":N,"backoff":S}
{"ev":"completed","corr":C,"artifact":F}
{"ev":"failed","corr":C,"code":E,"message":M}
{"ev":"rejected","corr":C,"label":L}
    v} *)

type entry =
  | J_submitted of {
      js_corr : string;
      js_key : string;  (** full {!Flow.Cache.key_of} dedup key *)
      js_label : string;
      js_artifact : string;  (** artifact file name (not path) *)
      js_request : Json.t;
          (** the request object; its ["priority"] member orders the job *)
      js_dedup : bool;  (** served by an existing job; changes no job *)
    }
  | J_started of { jt_corr : string; jt_attempt : int }
  | J_crashed of { jc_corr : string; jc_attempt : int; jc_reason : string }
  | J_retried of { jr_corr : string; jr_attempt : int; jr_backoff : float }
      (** [jr_attempt] is the {e next} attempt number *)
  | J_completed of { jd_corr : string; jd_artifact : string }
  | J_failed of { jf_corr : string; jf_code : string; jf_message : string }
      (** [jf_code] is an {!Ocapi_error.code_label}; ["cancelled"] is a
          cancellation *)
  | J_rejected of { jx_corr : string; jx_label : string }

val entry_json : entry -> Json.t

(** [Error] messages of an unknown ["ev"] start with ["unknown event"]. *)
val entry_of_json : Json.t -> (entry, string) result

(** {1 State} *)

type phase =
  | Queued
  | Running of int  (** attempt number *)
  | Completed of string  (** artifact file *)
  | Failed of string  (** error code *)

type job = {
  jb_corr : string;
  jb_key : string;
  jb_label : string;
  jb_artifact : string;
  jb_request : Json.t;
  jb_priority : priority;
  jb_seq : int;  (** first-submission order; kept when resubmitted *)
  jb_crashes : int;  (** attempts consumed by worker crashes *)
  jb_ready_at : float;  (** not dispatched before this time *)
  jb_phase : phase;
}

type t

val empty : t

(** [apply t ~now e] folds one transition in.  [now] only dates the
    readiness of a retried job ([J_retried]: [now + backoff]).
    Transitions about an unknown correlation id change only the
    tally. *)
val apply : t -> now:float -> entry -> t

val find : t -> string -> job option

(** The highest-priority, oldest queued job whose backoff has
    elapsed at [now]. *)
val next : t -> now:float -> job option

(** Jobs waiting to run, including those backing off. *)
val queued : t -> int

(** [count t kind] is how many transitions of [kind] were applied:
    ["submitted"] (fresh), ["deduped"], ["started"], ["crashed"],
    ["retried"], ["completed"], ["failed"], ["failed:CODE"] and
    ["rejected"]. *)
val count : t -> string -> int

(** {1 Decisions}

    These compute the entry to record; they do not change the state. *)

(** [admit t ~corr ~key ...] decides a submission: [J_submitted] with
    [js_dedup] when [key] is queued or running, or completed and
    [still_done] (default: always); [J_rejected] when [max_queue] jobs
    already wait; else a fresh [J_submitted]. *)
val admit :
  ?max_queue:int ->
  ?still_done:(job -> bool) ->
  t ->
  corr:string ->
  key:string ->
  label:string ->
  artifact:string ->
  request:Json.t ->
  entry

(** [backoff_delay ~base ~cap ~seed ~corr ~attempt] is the requeue
    delay in seconds after failed attempt number [attempt] (1-based):
    [base * 2{^attempt-1}], scaled by a jitter factor in [[1.0, 1.5)]
    drawn deterministically from [(seed, corr, attempt)], and clamped
    to [cap].  Deterministic, so a chaos campaign's schedule reproduces
    from its seed; jittered, so a crashed fleet does not retry in
    lockstep.
    @raise Invalid_argument on [base <= 0.], [cap < base] or
    [attempt < 1]. *)
val backoff_delay :
  base:float -> cap:float -> seed:int -> corr:string -> attempt:int -> float

(** [crash ~retries ~backoff ~corr ~attempt ~reason] is the record of a
    crashed attempt: [J_crashed], then [J_retried] after
    [backoff ~attempt] seconds, or — when [attempt] reaches the
    [retries] budget — the poisoning [J_failed] with code
    [retries-exhausted]. *)
val crash :
  retries:int ->
  backoff:(attempt:int -> float) ->
  corr:string ->
  attempt:int ->
  reason:string ->
  entry list

(** {1 Events} *)

(** [emit ~ns t e] mirrors [e] into {!Ocapi_obs.Events} — kinds
    [job_submitted], [job_deduped], [job_started], [worker_crashed],
    [job_retried], [job_completed], [job_failed], [job_cancelled] and
    [job_rejected], with the job's label and the entry's own fields,
    then [extra] — and counts it as the telemetry counter
    [ns.job.VERB] ([ns.job.failed.CODE] too for a failure).  [t] is
    the state the entry was applied to. *)
val emit : ns:string -> ?extra:(string * Json.t) list -> t -> entry -> unit

(** {1 Recovery} *)

(** [replay entries] folds a journal into the state a restarting
    executor resumes from.  A job that was running when the executor
    died is queued again without spending an attempt: it was not at
    fault. *)
val replay : entry list -> t

(** A job with no terminal record, which must run (again). *)
type pending = {
  p_corr : string;
  p_key : string;
  p_label : string;
  p_artifact : string;
  p_request : Json.t;
  p_attempts : int;  (** attempts consumed by worker crashes *)
}

type recovered = {
  rv_completed : (string * string) list;
      (** (dedup key, artifact file) of completed jobs *)
  rv_failed : (string * string) list;
      (** (dedup key, error code) of failed jobs; not a dedup source *)
  rv_pending : pending list;  (** queued or running jobs *)
}

(** The jobs of [t] by outcome, each list in first-submission order. *)
val recovered : t -> recovered
