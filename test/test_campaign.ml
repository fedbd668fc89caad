(* Tests for the campaign core (Ocapi_campaign): priority-then-FIFO
   order, backoff readiness, the retry budget, dedup, and the property
   that replaying the recorded entries rebuilds the live state.  The
   clock is an argument, so nothing here sleeps. *)

module C = Ocapi_campaign
module Json = Ocapi_obs.Json

let priorities = [| C.High; C.Normal; C.Low |]
let request p = Json.Obj [ ("priority", Json.String (C.priority_label p)) ]

(* A live executor in miniature: decide an entry, record it, apply it. *)
type executor = {
  mutable st : C.t;
  mutable log : C.entry list;  (* newest first *)
  mutable now : float;
  mutable running : (string * int) list;  (* corr, attempt *)
}

let executor () = { st = C.empty; log = []; now = 0.; running = [] }

let commit d e =
  d.log <- e :: d.log;
  d.st <- C.apply d.st ~now:d.now e

let admit ?(prio = C.Normal) ?still_done d name =
  let e =
    C.admit ?still_done d.st ~corr:(C.corr_of_key name) ~key:name ~label:name
      ~artifact:(name ^ ".json") ~request:(request prio)
  in
  commit d e;
  e

let start d =
  match C.next d.st ~now:d.now with
  | None -> None
  | Some j ->
    let attempt = j.C.jb_crashes + 1 in
    commit d (C.J_started { jt_corr = j.jb_corr; jt_attempt = attempt });
    d.running <- d.running @ [ (j.jb_corr, attempt) ];
    Some j.jb_label

let retries = 3
let backoff ~attempt = float_of_int attempt

let crash d corr attempt =
  List.iter (commit d)
    (C.crash ~retries ~backoff ~corr ~attempt ~reason:"signal sigkill")

(* Resolve the oldest running attempt with [f]. *)
let resolve d f =
  match d.running with
  | [] -> ()
  | (corr, attempt) :: rest ->
    d.running <- rest;
    f corr attempt

(* --- unit cases ----------------------------------------------------------- *)

let test_priority_fifo () =
  let d = executor () in
  List.iter
    (fun (p, name) -> ignore (admit ~prio:p d name))
    [
      (C.Low, "l1"); (C.Normal, "n1"); (C.High, "h1");
      (C.Low, "l2"); (C.Normal, "n2"); (C.High, "h2");
    ];
  let order = List.filter_map (fun _ -> start d) [ 1; 2; 3; 4; 5; 6; 7 ] in
  Alcotest.(check (list string))
    "high first, FIFO within each class"
    [ "h1"; "h2"; "n1"; "n2"; "l1"; "l2" ]
    order

let test_backoff_readiness () =
  let d = executor () in
  ignore (admit d "a");
  ignore (start d);
  d.now <- 10.;
  resolve d (crash d);
  ignore (admit d "b");
  let next_at t =
    Option.map (fun j -> j.C.jb_label) (C.next d.st ~now:t)
  in
  Alcotest.(check (option string)) "a backs off; b, submitted later, goes first"
    (Some "b") (next_at 10.);
  ignore (start d);
  Alcotest.(check (option string)) "nothing ready during a's backoff" None
    (next_at 10.999);
  Alcotest.(check (option string)) "a ready once its backoff elapsed" (Some "a")
    (next_at 11.);
  Alcotest.(check int) "a waits, counted as queued" 1 (C.queued d.st)

let test_poison_at_budget () =
  let d = executor () in
  ignore (admit d "p");
  let verdicts =
    List.map
      (fun attempt ->
        d.now <- d.now +. 100.;
        ignore (start d);
        resolve d (crash d);
        Alcotest.(check int) "attempt numbering" attempt
          (C.count d.st "crashed");
        match d.log with
        | C.J_retried r :: _ -> Printf.sprintf "retry %d" r.jr_attempt
        | C.J_failed f :: _ -> f.jf_code
        | _ -> "?")
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list string))
    "retried twice, poisoned exactly at the budget"
    [ "retry 2"; "retry 3"; "retries-exhausted" ]
    verdicts;
  Alcotest.(check bool) "nothing left to run" true (C.next d.st ~now:1e9 = None);
  Alcotest.(check (list (pair string string))) "a terminal failure"
    [ ("p", "retries-exhausted") ]
    (C.recovered d.st).rv_failed

let test_dedup_rules () =
  let d = executor () in
  let dedup = function C.J_submitted s -> s.js_dedup | _ -> false in
  ignore (admit d "done");
  Alcotest.(check bool) "a queued key dedups" true (dedup (admit d "done"));
  ignore (start d);
  Alcotest.(check bool) "a running key dedups" true (dedup (admit d "done"));
  resolve d (fun corr _ ->
      commit d (C.J_completed { jd_corr = corr; jd_artifact = "done.json" }));
  Alcotest.(check bool) "a completed key dedups" true (dedup (admit d "done"));
  Alcotest.(check bool) "unless its result is gone" false
    (dedup (admit ~still_done:(fun _ -> false) d "done"));
  ignore (start d);
  resolve d (fun corr _ ->
      commit d (C.J_completed { jd_corr = corr; jd_artifact = "done.json" }));
  ignore (admit d "bad");
  ignore (start d);
  resolve d (fun corr _ ->
      commit d (C.J_failed { jf_corr = corr; jf_code = "internal"; jf_message = "" }));
  Alcotest.(check bool) "a failed key is admitted again" false
    (dedup (admit d "bad"));
  Alcotest.(check (option string)) "and runs again" (Some "bad") (start d);
  Alcotest.(check int) "dedup count" 3 (C.count d.st "deduped");
  let full = C.admit ~max_queue:0 d.st ~corr:"x" ~key:"x" ~label:"x" ~artifact:"x"
      ~request:Json.Null in
  Alcotest.(check bool) "a full queue rejects" true
    (match full with C.J_rejected _ -> true | _ -> false)

(* --- replay = live -------------------------------------------------------- *)

type op = Admit of int * int | Start | Crash | Complete | Fail | Tick of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun k p -> Admit (k, p)) (int_bound 5) (int_bound 2));
        (3, return Start);
        (2, return Crash);
        (2, return Complete);
        (1, return Fail);
        (2, map (fun n -> Tick n) (int_bound 4));
      ])

let print_op = function
  | Admit (k, p) -> Printf.sprintf "admit k%d/%d" k p
  | Start -> "start"
  | Crash -> "crash"
  | Complete -> "complete"
  | Fail -> "fail"
  | Tick n -> Printf.sprintf "tick %d" n

let kinds =
  [
    "submitted"; "deduped"; "started"; "crashed"; "retried"; "completed";
    "failed"; "failed:retries-exhausted"; "rejected";
  ]

let run_ops ops =
  let d = executor () in
  List.iter
    (function
      | Admit (k, p) -> ignore (admit ~prio:priorities.(p) d (Printf.sprintf "k%d" k))
      | Start -> ignore (start d)
      | Crash -> resolve d (crash d)
      | Complete ->
        resolve d (fun corr _ ->
            commit d (C.J_completed { jd_corr = corr; jd_artifact = corr ^ ".json" }))
      | Fail ->
        resolve d (fun corr _ ->
            commit d (C.J_failed { jf_corr = corr; jf_code = "internal"; jf_message = "" }))
      | Tick n -> d.now <- d.now +. float_of_int n)
    ops;
  d

let replay_equals_live =
  QCheck.Test.make ~name:"replay of the emitted entries equals the live state"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       QCheck.Gen.(list_size (int_bound 60) op_gen))
    (fun ops ->
      let d = run_ops ops in
      let replayed = C.replay (List.rev d.log) in
      let live = C.recovered d.st in
      let corrs = List.map (fun p -> p.C.p_corr) live.rv_pending in
      live = C.recovered replayed
      && List.map (C.count d.st) kinds = List.map (C.count replayed) kinds
      && List.length (List.sort_uniq compare corrs) = List.length corrs
      && List.for_all
           (fun (key, _) ->
             not (List.exists (fun p -> p.C.p_key = key) live.rv_pending))
           live.rv_completed)

let suite =
  [
    Alcotest.test_case "priority, then FIFO" `Quick test_priority_fifo;
    Alcotest.test_case "retried job waits out its backoff" `Quick
      test_backoff_readiness;
    Alcotest.test_case "poisoned exactly at the retry budget" `Quick
      test_poison_at_budget;
    Alcotest.test_case "completed dedups, failed resubmits" `Quick
      test_dedup_rules;
    QCheck_alcotest.to_alcotest replay_equals_live;
  ]
