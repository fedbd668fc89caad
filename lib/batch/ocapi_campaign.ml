(* The campaign core: the job lifecycle both executors drive.  A pure
   state folded from journal entries; see ocapi_campaign.mli. *)

module Json = Ocapi_obs.Json

let ( let* ) = Result.bind

(* --- JSON fields ----------------------------------------------------------- *)

type 'a field = string -> Json.t -> ('a option, string) result

let field what conv name j =
  match Json.member name j with
  | None -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S must be %s" name what))

let string_field = field "a string" (function Json.String s -> Some s | _ -> None)
let int_field = field "an integer" (function Json.Int i -> Some i | _ -> None)

let number_field =
  field "a number" (function
    | Json.Int i -> Some (float_of_int i)
    | Json.Float f -> Some f
    | _ -> None)

let bool_field = field "a boolean" (function Json.Bool b -> Some b | _ -> None)

let strings_field =
  field "a list of strings" (function
    | Json.List items ->
      List.fold_right
        (fun item acc ->
          match (item, acc) with
          | Json.String s, Some l -> Some (s :: l)
          | _ -> None)
        items (Some [])
    | _ -> None)

let need f name j =
  let* v = f name j in
  match v with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing required field %S" name)

(* --- identity -------------------------------------------------------------- *)

let corr_of_key key = String.sub (Digest.to_hex (Digest.string key)) 0 12

type priority = High | Normal | Low

let priority_label = function High -> "high" | Normal -> "normal" | Low -> "low"
let priority_rank = function High -> 0 | Normal -> 1 | Low -> 2

let priority_of_request j =
  let* p = string_field "priority" j in
  match p with
  | None | Some "normal" -> Ok Normal
  | Some "high" -> Ok High
  | Some "low" -> Ok Low
  | Some other -> Error (Printf.sprintf "unknown priority %S" other)

(* --- manifests ------------------------------------------------------------- *)

let parse_line parse line =
  match Json.of_string line with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok j -> parse j

let read_manifest path parse =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go lineno acc =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc)
          | line -> (
            let line = String.trim line in
            if line = "" || line.[0] = '#' then go (lineno + 1) acc
            else
              match parse_line parse line with
              | Ok r -> go (lineno + 1) (r :: acc)
              | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
        in
        go 1 [])

(* --- transitions ----------------------------------------------------------- *)

type entry =
  | J_submitted of {
      js_corr : string;
      js_key : string;
      js_label : string;
      js_artifact : string;
      js_request : Json.t;
      js_dedup : bool;
    }
  | J_started of { jt_corr : string; jt_attempt : int }
  | J_crashed of { jc_corr : string; jc_attempt : int; jc_reason : string }
  | J_retried of { jr_corr : string; jr_attempt : int; jr_backoff : float }
  | J_completed of { jd_corr : string; jd_artifact : string }
  | J_failed of { jf_corr : string; jf_code : string; jf_message : string }
  | J_rejected of { jx_corr : string; jx_label : string }

let entry_json e =
  let s x = Json.String x in
  let ev, corr, fields =
    match e with
    | J_submitted x ->
      ( "submitted",
        x.js_corr,
        [
          ("key", s x.js_key);
          ("label", s x.js_label);
          ("artifact", s x.js_artifact);
          ("dedup", Json.Bool x.js_dedup);
          ("request", x.js_request);
        ] )
    | J_started x -> ("started", x.jt_corr, [ ("attempt", Json.Int x.jt_attempt) ])
    | J_crashed x ->
      ( "crashed",
        x.jc_corr,
        [ ("attempt", Json.Int x.jc_attempt); ("reason", s x.jc_reason) ] )
    | J_retried x ->
      ( "retried",
        x.jr_corr,
        [ ("attempt", Json.Int x.jr_attempt); ("backoff", Json.Float x.jr_backoff) ] )
    | J_completed x -> ("completed", x.jd_corr, [ ("artifact", s x.jd_artifact) ])
    | J_failed x ->
      ("failed", x.jf_corr, [ ("code", s x.jf_code); ("message", s x.jf_message) ])
    | J_rejected x -> ("rejected", x.jx_corr, [ ("label", s x.jx_label) ])
  in
  Json.Obj (("ev", s ev) :: ("corr", s corr) :: fields)

let entry_of_json j =
  let str name = need string_field name j in
  let int name = need int_field name j in
  let corr = str "corr" in
  let* ev = str "ev" in
  match ev with
  | "submitted" ->
    let* js_corr = corr in
    let* js_key = str "key" in
    let* js_label = str "label" in
    let* js_artifact = str "artifact" in
    let* js_dedup = need bool_field "dedup" j in
    let* js_request =
      Option.to_result ~none:"missing required field \"request\""
        (Json.member "request" j)
    in
    Ok (J_submitted { js_corr; js_key; js_label; js_artifact; js_request; js_dedup })
  | "started" ->
    let* jt_corr = corr in
    let* jt_attempt = int "attempt" in
    Ok (J_started { jt_corr; jt_attempt })
  | "crashed" ->
    let* jc_corr = corr in
    let* jc_attempt = int "attempt" in
    let* jc_reason = str "reason" in
    Ok (J_crashed { jc_corr; jc_attempt; jc_reason })
  | "retried" ->
    let* jr_corr = corr in
    let* jr_attempt = int "attempt" in
    let* jr_backoff = need number_field "backoff" j in
    Ok (J_retried { jr_corr; jr_attempt; jr_backoff })
  | "completed" ->
    let* jd_corr = corr in
    let* jd_artifact = str "artifact" in
    Ok (J_completed { jd_corr; jd_artifact })
  | "failed" ->
    let* jf_corr = corr in
    let* jf_code = str "code" in
    let* jf_message = str "message" in
    Ok (J_failed { jf_corr; jf_code; jf_message })
  | "rejected" ->
    let* jx_corr = corr in
    let* jx_label = str "label" in
    Ok (J_rejected { jx_corr; jx_label })
  | other -> Error ("unknown event: " ^ other)

(* --- state ----------------------------------------------------------------- *)

type phase = Queued | Running of int | Completed of string | Failed of string

type job = {
  jb_corr : string;
  jb_key : string;
  jb_label : string;
  jb_artifact : string;
  jb_request : Json.t;
  jb_priority : priority;
  jb_seq : int;
  jb_crashes : int;
  jb_ready_at : float;
  jb_phase : phase;
}

module Smap = Map.Make (String)

(* Queued jobs, ordered by (priority rank, first-submission seq). *)
module Queue_set = Set.Make (struct
  type t = int * int * string

  let compare = compare
end)

type t = {
  jobs : job Smap.t;  (* by correlation id *)
  by_key : string Smap.t;  (* dedup key -> correlation id *)
  queue : Queue_set.t;
  next_seq : int;
  tally : int Smap.t;
}

let empty =
  {
    jobs = Smap.empty;
    by_key = Smap.empty;
    queue = Queue_set.empty;
    next_seq = 0;
    tally = Smap.empty;
  }

let find t corr = Smap.find_opt corr t.jobs
let count t kind = Option.value (Smap.find_opt kind t.tally) ~default:0
let queued t = Queue_set.cardinal t.queue
let slot j = (priority_rank j.jb_priority, j.jb_seq, j.jb_corr)
let live j = match j.jb_phase with Queued | Running _ -> true | _ -> false

(* Replace a job, keeping the queue in step with its phase. *)
let put t old j =
  let queue =
    match old with
    | Some o when o.jb_phase = Queued -> Queue_set.remove (slot o) t.queue
    | _ -> t.queue
  in
  let queue = if j.jb_phase = Queued then Queue_set.add (slot j) queue else queue in
  { t with jobs = Smap.add j.jb_corr j t.jobs; queue }

let tally_kinds = function
  | J_submitted { js_dedup = true; _ } -> [ "deduped" ]
  | J_submitted _ -> [ "submitted" ]
  | J_started _ -> [ "started" ]
  | J_crashed _ -> [ "crashed" ]
  | J_retried _ -> [ "retried" ]
  | J_completed _ -> [ "completed" ]
  | J_failed f -> [ "failed"; "failed:" ^ f.jf_code ]
  | J_rejected _ -> [ "rejected" ]

let apply t ~now e =
  let t =
    List.fold_left
      (fun t k -> { t with tally = Smap.add k (count t k + 1) t.tally })
      t (tally_kinds e)
  in
  let update corr f =
    match find t corr with Some j -> put t (Some j) (f j) | None -> t
  in
  match e with
  | J_submitted { js_dedup = true; _ } | J_rejected _ -> t
  | J_submitted s -> (
    match find t s.js_corr with
    | Some j when live j -> t
    | prev ->
      (* A fresh job, or the resubmission of one that ended: failed
         keys, and completed keys whose artifact is gone, run again. *)
      let seq = match prev with Some j -> j.jb_seq | None -> t.next_seq in
      let j =
        {
          jb_corr = s.js_corr;
          jb_key = s.js_key;
          jb_label = s.js_label;
          jb_artifact = s.js_artifact;
          jb_request = s.js_request;
          jb_priority =
            Result.value (priority_of_request s.js_request) ~default:Normal;
          jb_seq = seq;
          jb_crashes = 0;
          jb_ready_at = 0.;
          jb_phase = Queued;
        }
      in
      let t = put t prev j in
      {
        t with
        by_key = Smap.add s.js_key s.js_corr t.by_key;
        next_seq = max t.next_seq (seq + 1);
      })
  | J_started s ->
    update s.jt_corr (fun j ->
        if j.jb_phase = Queued then { j with jb_phase = Running s.jt_attempt } else j)
  | J_crashed c ->
    update c.jc_corr (fun j ->
        if live j then
          { j with jb_phase = Queued; jb_crashes = c.jc_attempt; jb_ready_at = now }
        else j)
  | J_retried r ->
    update r.jr_corr (fun j ->
        if live j then { j with jb_ready_at = now +. r.jr_backoff } else j)
  | J_completed d -> update d.jd_corr (fun j -> { j with jb_phase = Completed d.jd_artifact })
  | J_failed f -> update f.jf_corr (fun j -> { j with jb_phase = Failed f.jf_code })

let next t ~now =
  Queue_set.to_seq t.queue
  |> Seq.find_map (fun (_, _, corr) ->
         let j = Smap.find corr t.jobs in
         if j.jb_ready_at <= now then Some j else None)

(* --- decisions ------------------------------------------------------------- *)

let admit ?(max_queue = max_int) ?(still_done = fun _ -> true) t ~corr ~key ~label
    ~artifact ~request =
  let submitted dedup =
    J_submitted
      {
        js_corr = corr;
        js_key = key;
        js_label = label;
        js_artifact = artifact;
        js_request = request;
        js_dedup = dedup;
      }
  in
  match Option.bind (Smap.find_opt key t.by_key) (find t) with
  | Some j when live j -> submitted true
  | Some ({ jb_phase = Completed _; _ } as j) when still_done j -> submitted true
  | _ when queued t >= max_queue -> J_rejected { jx_corr = corr; jx_label = label }
  | _ -> submitted false

let backoff_delay ~base ~cap ~seed ~corr ~attempt =
  if base <= 0. then invalid_arg "Ocapi_campaign.backoff_delay: base <= 0";
  if cap < base then invalid_arg "Ocapi_campaign.backoff_delay: cap < base";
  if attempt < 1 then invalid_arg "Ocapi_campaign.backoff_delay: attempt < 1";
  (* Jitter in [0, 0.5), drawn from a digest so the schedule is a pure
     function of (seed, corr, attempt). *)
  let d = Digest.string (Printf.sprintf "%d|%s|%d" seed corr attempt) in
  let u = int_of_string ("0x" ^ String.sub (Digest.to_hex d) 0 7) in
  let jitter = 0.5 *. (float_of_int u /. 268435456. (* 16^7 *)) in
  Float.min cap (ldexp base (attempt - 1) *. (1. +. jitter))

let crash ~retries ~backoff ~corr ~attempt ~reason =
  [
    J_crashed { jc_corr = corr; jc_attempt = attempt; jc_reason = reason };
    (if attempt >= retries then
       (* Poisoned: this job has killed every worker sent at it. *)
       J_failed
         {
           jf_corr = corr;
           jf_code = Ocapi_error.code_label Retries_exhausted;
           jf_message =
             Printf.sprintf "poisoned after %d crashed attempts (last: %s)" attempt
               reason;
         }
     else
       J_retried { jr_corr = corr; jr_attempt = attempt + 1; jr_backoff = backoff ~attempt });
  ]

(* --- events ---------------------------------------------------------------- *)

let emit ~ns ?(extra = []) t e =
  if Ocapi_obs.Events.enabled () || Ocapi_obs.enabled () then begin
    let label corr =
      match find t corr with
      | Some j -> [ ("label", Json.String j.jb_label) ]
      | None -> []
    in
    let kind, corr, fields =
      match e with
      | J_submitted s ->
        ( (if s.js_dedup then "job_deduped" else "job_submitted"),
          s.js_corr,
          [ ("label", Json.String s.js_label) ] )
      | J_started s -> ("job_started", s.jt_corr, label s.jt_corr)
      | J_crashed c ->
        ( "worker_crashed",
          c.jc_corr,
          label c.jc_corr
          @ [ ("attempt", Json.Int c.jc_attempt); ("reason", Json.String c.jc_reason) ] )
      | J_retried r ->
        ( "job_retried",
          r.jr_corr,
          label r.jr_corr
          @ [ ("attempt", Json.Int r.jr_attempt); ("backoff", Json.Float r.jr_backoff) ]
        )
      | J_completed d -> ("job_completed", d.jd_corr, label d.jd_corr)
      | J_failed { jf_corr; jf_code = "cancelled"; _ } ->
        ("job_cancelled", jf_corr, label jf_corr)
      | J_failed f ->
        ("job_failed", f.jf_corr, label f.jf_corr @ [ ("code", Json.String f.jf_code) ])
      | J_rejected x -> ("job_rejected", x.jx_corr, [])
    in
    Ocapi_obs.Events.emit ~corr ~fields:(fields @ extra) kind;
    if Ocapi_obs.enabled () then begin
      let verb = List.nth (String.split_on_char '_' kind) 1 in
      Ocapi_obs.count (Printf.sprintf "%s.job.%s" ns verb);
      match e with
      | J_failed f when f.jf_code <> "cancelled" ->
        Ocapi_obs.count (Printf.sprintf "%s.job.failed.%s" ns f.jf_code)
      | _ -> ()
    end
  end

(* --- recovery -------------------------------------------------------------- *)

let replay entries =
  let t = List.fold_left (fun t e -> apply t ~now:0. e) empty entries in
  Smap.fold
    (fun _ j t ->
      match j.jb_phase with
      | Running _ -> put t (Some j) { j with jb_phase = Queued }
      | _ -> t)
    t.jobs t

type pending = {
  p_corr : string;
  p_key : string;
  p_label : string;
  p_artifact : string;
  p_request : Json.t;
  p_attempts : int;
}

type recovered = {
  rv_completed : (string * string) list;
  rv_failed : (string * string) list;
  rv_pending : pending list;
}

let recovered t =
  let jobs =
    Smap.fold (fun _ j acc -> j :: acc) t.jobs []
    |> List.sort (fun a b -> compare a.jb_seq b.jb_seq)
  in
  let pick f = List.filter_map f jobs in
  {
    rv_completed =
      pick (fun j ->
          match j.jb_phase with Completed a -> Some (j.jb_key, a) | _ -> None);
    rv_failed =
      pick (fun j -> match j.jb_phase with Failed c -> Some (j.jb_key, c) | _ -> None);
    rv_pending =
      pick (fun j ->
          if live j then
            Some
              {
                p_corr = j.jb_corr;
                p_key = j.jb_key;
                p_label = j.jb_label;
                p_artifact = j.jb_artifact;
                p_request = j.jb_request;
                p_attempts = j.jb_crashes;
              }
          else None);
  }
