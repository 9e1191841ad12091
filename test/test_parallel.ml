(* Multi-core simulation: the sequential coordinator interleaves cores in
   (simulated time, core) order, so a multi-core run must be a pure
   function of its inputs — cycle counts, the rendered engine profile and
   the full SoC snapshot reproduce exactly, including under deterministic
   fault injection and across checkpoint/restore — and observing a run
   must not change it. The ordering itself, shared-memory contention, the
   more-programs-than-cores check and the abort path are pinned too. *)

module Soc = Gem_soc.Soc
module Soc_config = Gem_soc.Soc_config
module Runtime = Gem_sw.Runtime
module Engine = Gem_sim.Engine
module Fault = Gem_sim.Fault
module Jsonx = Gem_util.Jsonx
module Zoo = Gem_dnn.Model_zoo

let squeezenet16 = Zoo.scale_model ~factor:16 Zoo.squeezenet
let mobilenetv2_32 = Zoo.scale_model ~factor:32 Zoo.mobilenetv2

let config ~cores =
  Soc_config.with_cores
    (List.init cores (fun _ -> Soc_config.default_core))
    Soc_config.default

(* Alternate the im2col placement so cores run asymmetric programs and a
   scheduling bug cannot hide behind symmetry. *)
let mode_for i = Runtime.Accel { im2col_on_accel = i mod 2 = 0 }

let jobs_for model ~cores =
  Array.init cores (fun i -> (model, mode_for i))

let cycles_of rs =
  Array.to_list (Array.map (fun r -> r.Runtime.r_total_cycles) rs)

(* Everything observable about a finished run: per-core cycle counts, the
   rendered engine utilization table (requests/busy/wait for every
   component), and the full SoC snapshot (controllers, caches, TLBs,
   trace rings, injection cursors). *)
let fingerprint soc rs =
  let profile =
    Gem_util.Table.render (Engine.utilization_table (Soc.engine soc) ())
  in
  (cycles_of rs, profile, Jsonx.to_string (Soc.snapshot soc))

let run_point ?(inject = false) model ~cores =
  let soc = Soc.create (config ~cores) in
  if inject then Soc.arm_injection soc ~seed:42 ~rate:0.0005;
  let rs =
    Runtime.run_parallel ~policy:Runtime.Retry_map soc (jobs_for model ~cores)
  in
  let faults =
    List.concat_map
      (fun r ->
        List.map
          (fun fr ->
            fr.Runtime.fr_action ^ " " ^ Fault.to_string fr.Runtime.fr_fault)
          r.Runtime.r_faults)
      (Array.to_list rs)
  in
  (fingerprint soc rs, faults)

let check_reproducible ?inject ?(model = squeezenet16) name ~cores =
  let ((c0, p0, s0), f0) = run_point ?inject model ~cores in
  let ((c1, p1, s1), f1) = run_point ?inject model ~cores in
  let label what = Printf.sprintf "%s cores=%d: %s" name cores what in
  Alcotest.(check (list int)) (label "cycle counts") c0 c1;
  Alcotest.(check string) (label "engine profile") p0 p1;
  Alcotest.(check string) (label "SoC snapshot") s0 s1;
  Alcotest.(check (list string)) (label "fault trace") f0 f1;
  f0

let test_reproducible () =
  List.iter
    (fun cores -> ignore (check_reproducible "squeezenet/16" ~cores))
    [ 2; 4 ]

let test_reproducible_mobilenet () =
  List.iter
    (fun cores ->
      ignore
        (check_reproducible ~model:mobilenetv2_32 "mobilenetv2/32" ~cores))
    [ 2; 4 ]

let test_mixed_models () =
  (* Different networks on the two cores: the interleaving depends on both
     programs' timing, and must still be a pure function of them. *)
  let run () =
    let soc = Soc.create (config ~cores:2) in
    let rs =
      Runtime.run_parallel soc
        [| (squeezenet16, mode_for 0); (mobilenetv2_32, mode_for 1) |]
    in
    fingerprint soc rs
  in
  let (c0, p0, s0) = run () and (c1, p1, s1) = run () in
  Alcotest.(check (list int)) "mixed cycle counts" c0 c1;
  Alcotest.(check string) "mixed engine profile" p0 p1;
  Alcotest.(check string) "mixed SoC snapshot" s0 s1

let test_injection_reproducible () =
  let faults =
    check_reproducible ~inject:true "squeezenet/16+inject" ~cores:2
  in
  Alcotest.(check bool) "injection fired" true (faults <> [])

let test_restore_interleaving () =
  (* Checkpoint the state one round of dual-core inference leaves behind,
     restore it into fresh SoCs, and drive a second round from it twice:
     the restored continuation must reproduce exactly. *)
  let snap =
    let soc = Soc.create (config ~cores:2) in
    ignore (Runtime.run_parallel soc (jobs_for squeezenet16 ~cores:2));
    Soc.snapshot soc
  in
  let second_round () =
    let soc = Soc.create (config ~cores:2) in
    Soc.restore soc snap;
    fingerprint soc
      (Runtime.run_parallel soc (jobs_for mobilenetv2_32 ~cores:2))
  in
  let (c0, p0, s0) = second_round () and (c1, p1, s1) = second_round () in
  Alcotest.(check (list int)) "restored continuation cycles" c0 c1;
  Alcotest.(check string) "restored continuation profile" p0 p1;
  Alcotest.(check string) "restored continuation snapshot" s0 s1

let test_traced_agrees () =
  (* Events carry already-observed timestamps, so a traced run must agree
     with the quiet run cycle-for-cycle. *)
  let quiet =
    let soc = Soc.create (config ~cores:2) in
    cycles_of (Runtime.run_parallel soc (jobs_for squeezenet16 ~cores:2))
  in
  let soc = Soc.create (config ~cores:2) in
  Engine.set_tracing (Soc.engine soc) true;
  let rs = Runtime.run_parallel soc (jobs_for squeezenet16 ~cores:2) in
  Alcotest.(check bool) "trace ring captured events" true
    (Engine.event_count (Soc.engine soc) > 0);
  Alcotest.(check (list int)) "traced run agrees with quiet run" quiet
    (cycles_of rs)

let test_time_core_order () =
  (* The coordinator always advances the core whose issue cursor is
     earliest, the lower index on a tie; markers log the order. *)
  let soc = Soc.create (config ~cores:2) in
  let log = ref [] in
  let mark name =
    Soc.Marker
      (fun c ->
        let now = Gemmini.Controller.now (Soc.controller c) in
        log := Printf.sprintf "%s@%d" name now :: !log)
  in
  let work cycles = Soc.Host_work { cycles; tag = "host" } in
  let finish =
    Soc.run_parallel soc
      [|
        List.to_seq [ mark "a"; work 10; mark "a0"; work 10; mark "a1" ];
        List.to_seq [ mark "b"; work 15; mark "b0"; work 2; mark "b1" ];
      |]
  in
  Alcotest.(check (list string)) "ops run in (time, core) order"
    [ "a@0"; "b@0"; "a0@10"; "b0@15"; "b1@17"; "a1@20" ]
    (List.rev !log);
  Alcotest.(check (array int)) "per-core finish times" [| 20; 17 |] finish

let test_idle_core () =
  (* A core with no program issues nothing, so a lone program on a
     dual-core chip sees no contention and times as on a single core. *)
  let cycles cores =
    let soc = Soc.create (config ~cores) in
    cycles_of (Runtime.run_parallel soc (jobs_for squeezenet16 ~cores:1))
  in
  Alcotest.(check (list int)) "idle second core changes nothing" (cycles 1)
    (cycles 2)

(* [cores] copies of one program: per-core cycles, by core index. *)
let symmetric cores =
  let soc = Soc.create (config ~cores) in
  Array.to_list
    (Array.map
       (fun r -> r.Runtime.r_total_cycles)
       (Runtime.run_parallel soc (Array.make cores (squeezenet16, mode_for 0))))

let test_contention_grows () =
  (* Co-running copies compete for the shared L2 port and DRAM channel:
     every core of a larger group is slower than every core of a
     smaller one. *)
  let c1 = symmetric 1 and c2 = symmetric 2 and c4 = symmetric 4 in
  let check what slower faster =
    Alcotest.(check bool) what true
      (List.fold_left min max_int slower > List.fold_left max 0 faster)
  in
  check "2 cores slower than 1" c2 c1;
  check "4 cores slower than 2" c4 c2

let test_tie_priority () =
  (* Identical programs tie at every step until they diverge; the lower
     index goes first, so it never finishes after a higher one. *)
  List.iter
    (fun cores ->
      let cs = symmetric cores in
      Alcotest.(check (list int))
        (Printf.sprintf "cores=%d finish in index order" cores)
        (List.sort compare cs) cs)
    [ 2; 4 ]

let test_too_many_programs () =
  let soc = Soc.create (config ~cores:1) in
  Alcotest.check_raises "more programs than cores"
    (Invalid_argument "Soc.run_parallel: more programs than cores")
    (fun () -> ignore (Soc.run_parallel soc [| Seq.empty; Seq.empty |]))

let test_abort_escapes () =
  (* Under the default abort policy an injected fault escapes the
     coordinator as Fault.Trap, and the same fault fires every time. *)
  let run () =
    let soc = Soc.create (config ~cores:2) in
    Soc.arm_injection soc ~seed:42 ~rate:0.0005;
    match Runtime.run_parallel soc (jobs_for squeezenet16 ~cores:2) with
    | _ -> Alcotest.fail "injected run under Abort must raise"
    | exception Fault.Trap f -> Fault.to_string f
  in
  let first = run () in
  Alcotest.(check string) "same fault escapes" first (run ())

let test_serve_reproducible () =
  let scenario =
    {
      Gem_serve.Serve.default with
      Gem_serve.Serve.sv_model = "mobilenetv2";
      sv_scale = 32;
      sv_arrival = Gem_serve.Arrival.Poisson { rate_rps = 4000. };
      sv_batch = Gem_serve.Batch.Fixed 2;
      sv_duration_ms = 1.5;
      sv_slos_ms = [ 2.0 ];
    }
  in
  let report () = Gem_serve.Report.render (Gem_serve.Serve.run scenario) in
  Alcotest.(check string) "dual-core serve report reproduces" (report ())
    (report ())

let suite =
  [
    Alcotest.test_case "squeezenet: dual/quad-core runs reproduce" `Quick
      test_reproducible;
    Alcotest.test_case "mobilenetv2: dual/quad-core runs reproduce" `Quick
      test_reproducible_mobilenet;
    Alcotest.test_case "mixed models across cores reproduce" `Quick
      test_mixed_models;
    Alcotest.test_case "fault injection: injected run reproduces" `Quick
      test_injection_reproducible;
    Alcotest.test_case "checkpoint/restore continuation identity" `Quick
      test_restore_interleaving;
    Alcotest.test_case "traced run agrees with quiet run" `Quick
      test_traced_agrees;
    Alcotest.test_case "coordinator orders ops by (time, core)" `Quick
      test_time_core_order;
    Alcotest.test_case "idle core leaves timing unchanged" `Quick
      test_idle_core;
    Alcotest.test_case "shared L2/DRAM contention grows with cores" `Quick
      test_contention_grows;
    Alcotest.test_case "identical programs: lower index wins ties" `Quick
      test_tie_priority;
    Alcotest.test_case "more programs than cores is rejected" `Quick
      test_too_many_programs;
    Alcotest.test_case "abort policy: injected fault escapes" `Quick
      test_abort_escapes;
    Alcotest.test_case "serve report reproduces" `Quick
      test_serve_reproducible;
  ]
