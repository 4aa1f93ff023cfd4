(* The network front end on its own, behind a stub handler: which ops it
   answers itself, which it hands to the owner, how it frames errors,
   how it merges the owner's stats rows with its own, and the limits it
   rejects before binding. *)

module Frontend = Ptg_server.Frontend
module Client = Ptg_server.Client
module Protocol = Ptg_server.Protocol
module Scenario = Ptg_sim.Scenario
module Registry = Ptg_obs.Registry
module Clock = Ptg_util.Clock

let listen ?(idle_timeout_s = 60.) ?(max_conns = 8) ?(drain_deadline_s = 1.) () =
  Frontend.listen ~idle_timeout_s ~max_conns ~drain_deadline_s (Frontend.Tcp 0)

(* A stub owner: [run] echoes the scenario hash and whether it was
   streamed and cancellable; every call is logged. *)
let stub () =
  let log = ref [] in
  let mutex = Mutex.create () in
  let note s =
    Mutex.lock mutex;
    log := s :: !log;
    Mutex.unlock mutex
  in
  let handler =
    {
      Frontend.connect =
        (fun () ->
          note "connect";
          {
            Frontend.run =
              (fun ?on_progress ?cancel_id s ->
                Option.iter (fun f -> f ~done_count:1 ~total:2) on_progress;
                Protocol.Result
                  {
                    cache = Protocol.Miss;
                    hash = Scenario.hash s;
                    result =
                      Printf.sprintf "stream=%b cancel=%s" (on_progress <> None)
                        (Option.value ~default:"-" cancel_id);
                  });
            close = (fun () -> note "close");
          });
      cancel =
        (fun target ->
          note ("cancel " ^ target);
          Protocol.Pong);
      stats = (fun () -> [ ("zeta", 1.); ("alpha", 2.) ]);
      on_error = (fun () -> note "error");
    }
  in
  let logged () =
    Mutex.lock mutex;
    let l = List.rev !log in
    Mutex.unlock mutex;
    l
  in
  (handler, logged)

let test_dispatch_and_stats () =
  let handler, logged = stub () in
  let registry = Registry.create () in
  let fe = Frontend.serve ~registry ~prefix:"stub" (listen ()) handler in
  let addr = Frontend.addr fe in
  let c = Client.connect addr in
  (match Client.request c Protocol.Ping with
  | Ok Protocol.Pong -> ()
  | _ -> Alcotest.fail "ping");
  (match Client.hello c with
  | Ok v -> Alcotest.(check int) "hello settles on the max version" Protocol.max_version v
  | Error e -> Alcotest.fail e);
  let scenario = Scenario.make ~seed:3L Scenario.Fig8 in
  (match Client.run c scenario with
  | Ok (Protocol.Result { result; _ }) ->
      Alcotest.(check string) "v1 run: no progress, not cancellable" "stream=false cancel=-"
        result
  | _ -> Alcotest.fail "run");
  let progress = ref [] in
  (match
     Client.run_stream ~id:"r1"
       ~on_progress:(fun ~done_count ~total -> progress := (done_count, total) :: !progress)
       c scenario
   with
  | Ok (Protocol.Result { result; _ }) ->
      Alcotest.(check string) "v2 stream with id: progress and cancellable"
        "stream=true cancel=r1" result;
      Alcotest.(check (list (pair int int))) "progress frame relayed" [ (1, 2) ] !progress
  | _ -> Alcotest.fail "run_stream");
  (match Client.cancel c ~target:"r1" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Client.request c Protocol.Stats with
  | Ok (Protocol.Stats_reply rows) ->
      Alcotest.(check (list string))
        "owner rows merged with the front end's, sorted"
        [ "accept_errors"; "alpha"; "conn_shed"; "conns"; "idle_closed"; "zeta" ]
        (List.map fst rows);
      Alcotest.(check (option (float 0.))) "this connection counted" (Some 1.)
        (List.assoc_opt "conns" rows)
  | _ -> Alcotest.fail "stats");
  Client.close c;
  (* A malformed frame is the owner's error to count. *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match addr with
  | Frontend.Tcp port -> Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  | Frontend.Unix_socket _ -> Alcotest.fail "expected tcp");
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  output_string oc "not a frame\n";
  flush oc;
  Alcotest.(check bool) "decode error answered" true
    (String.length (input_line ic) > 0);
  (* A shutdown frame stops the front end; wait then returns. *)
  output_string oc {|{"v":1,"op":"shutdown","id":"s"}|};
  output_string oc "\n";
  flush oc;
  ignore (input_line ic);
  close_out_noerr oc;
  Frontend.wait fe;
  Frontend.stop fe;
  let log = logged () in
  let count s = List.length (List.filter (( = ) s) log) in
  Alcotest.(check int) "one session per connection" 2 (count "connect");
  Alcotest.(check int) "every session closed" 2 (count "close");
  Alcotest.(check int) "cancel handed to the owner" 1 (count "cancel r1");
  Alcotest.(check int) "malformed frame reported once" 1 (count "error")

let test_limits_rejected () =
  let rejects what listen =
    match listen () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  rejects "negative idle timeout" (listen ~idle_timeout_s:(-1.));
  rejects "nan idle timeout" (listen ~idle_timeout_s:Float.nan);
  rejects "zero connection cap" (listen ~max_conns:0);
  rejects "negative drain deadline" (listen ~drain_deadline_s:(-0.5))

let suite =
  [
    Alcotest.test_case "front end dispatch, framing and stats" `Quick
      test_dispatch_and_stats;
    Alcotest.test_case "front end rejects bad limits before binding" `Quick
      test_limits_rejected;
  ]
