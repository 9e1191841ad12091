(* Queue-latency histograms kept by the resources themselves: bucket
   geometry, agreement with an independent event-built reference on real
   runs (multi-core, injected faults, warm-restored serving, a DSE cycle
   point), the quiet serving path, and the lazily allocated SRAM banks
   that keep SoC creation cheap. *)

open Gem_sim
module H = Gem_util.Stats.Histogram
module Soc = Gem_soc.Soc
module Soc_config = Gem_soc.Soc_config
module Runtime = Gem_sw.Runtime
module Serve = Gem_serve.Serve
module Sram = Gem_mem.Sram

let squeezenet16 =
  Gem_dnn.Model_zoo.scale_model ~factor:16
    (Option.get (Gem_dnn.Model_zoo.find "squeezenet1.1"))

let mode = Runtime.Accel { im2col_on_accel = true }

(* Exact rendering of a latency row: hex floats, so bucket midpoints and
   maxima must match bit for bit. *)
let render rows =
  List.map
    (fun (name, n, (s : H.summary)) ->
      Printf.sprintf "%s n=%d p50=%h p95=%h p99=%h max=%h" name n s.H.p50
        s.H.p95 s.H.p99 s.H.max)
    rows

(* The reference: one histogram per component built from the engine's
   Acquire events with the geometry an attached collector used (64
   buckets over 4096 cycles), in registration order. Attaching it makes
   the engine live, which never perturbs simulated timing. *)
let attach_reference engine =
  let tbl = Hashtbl.create 16 in
  Engine.add_sink engine (function
    | Engine.Acquire { component; time; start; _ } ->
        let h, n =
          match Hashtbl.find_opt tbl component with
          | Some x -> x
          | None ->
              let x = (H.create ~buckets:64 ~range:4096., ref 0) in
              Hashtbl.add tbl component x;
              x
        in
        H.add h (float_of_int (start - time));
        incr n
    | _ -> ());
  fun () ->
    let rows =
      List.filter_map
        (fun (name, _) ->
          Option.map
            (fun (h, n) -> (name, !n, H.summary h))
            (Hashtbl.find_opt tbl name))
        (Engine.components engine)
    in
    Alcotest.(check int) "every acquiring component is registered"
      (Hashtbl.length tbl) (List.length rows);
    rows

let check_against_reference what engine reference =
  let expected = reference () in
  Alcotest.(check bool) (what ^ ": reference saw acquires") true (expected <> []);
  Alcotest.(check (list string)) what (render expected)
    (render (Engine.latency engine))

(* --- histogram geometry ----------------------------------------------------- *)

let test_of_counts () =
  let h = H.create ~buckets:8 ~range:80. in
  List.iter (H.add h) [ 0.; 9.; 10.; 35.; 79.; 500. ];
  let h' = H.of_counts ~range:80. (H.bucket_counts h) ~max:500. in
  Alcotest.(check (array int)) "counts" (H.bucket_counts h) (H.bucket_counts h');
  Alcotest.(check int) "count" 6 (H.count h');
  Alcotest.(check (list string)) "summary"
    (render [ ("h", 6, H.summary h) ])
    (render [ ("h", 6, H.summary h') ]);
  let empty = H.of_counts ~range:80. (Array.make 8 0) ~max:123. in
  Alcotest.(check bool) "empty max is nan" true (Float.is_nan (H.max empty));
  let bad what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  bad "no buckets" (fun () -> H.of_counts ~range:80. [||] ~max:0.);
  bad "negative count" (fun () -> H.of_counts ~range:80. [| 1; -1 |] ~max:1.);
  bad "max below top bucket" (fun () ->
      H.of_counts ~range:80. [| 0; 1 |] ~max:3.);
  bad "max above top bucket" (fun () ->
      H.of_counts ~range:80. [| 1; 0; 0 |] ~max:60.);
  bad "nan max" (fun () -> H.of_counts ~range:80. [| 1 |] ~max:nan)

let test_resource_buckets () =
  let r = Resource.create ~name:"r" in
  (* Each request arrives at 0 behind the previous one's occupancy, so
     the waits are exactly the running busy_until: 0, 63, 64, 4095,
     4096, 10000. *)
  let waits = [ 0; 63; 64; 4095; 4096; 10000 ] in
  let rec go busy = function
    | [] -> ()
    | w :: rest ->
        assert (busy = w);
        let next = match rest with n :: _ -> n | [] -> busy + 1 in
        ignore (Resource.acquire r ~now:0 ~occupancy:(next - busy));
        go next rest
  in
  go 0 waits;
  Alcotest.(check int) "samples" 6 (Resource.wait_samples r);
  let counts = H.bucket_counts (Resource.wait_histogram r) in
  Alcotest.(check int) "bucket 0: waits 0 and 63" 2 counts.(0);
  Alcotest.(check int) "bucket 1: wait 64" 1 counts.(1);
  Alcotest.(check int) "bucket 63: 4095 and the clamped 4096, 10000" 3
    counts.(63);
  Alcotest.(check (float 0.)) "exact max" 10000.
    (H.max (Resource.wait_histogram r));
  (* occupy_until records too. *)
  Resource.occupy_until r ~now:20_000 ~start:20_100 ~until:20_200;
  Alcotest.(check int) "occupy counted" 7 (Resource.wait_samples r);
  Alcotest.(check int) "wait 100 in bucket 1" 2
    (H.bucket_counts (Resource.wait_histogram r)).(1);
  (* Checkpoint restore rewrites the arbitration counters only. *)
  Resource.force_state r ~busy_until:0 ~busy_cycles:0 ~requests:0
    ~wait_cycles:0;
  Alcotest.(check int) "force_state keeps the histogram" 7
    (Resource.wait_samples r);
  Resource.reset r;
  Alcotest.(check int) "reset clears it" 0 (Resource.wait_samples r);
  Alcotest.(check bool) "empty max is nan" true
    (Float.is_nan (H.max (Resource.wait_histogram r)))

(* --- agreement with the event-built reference --------------------------------- *)

let test_reference_dual_core () =
  let soc = Soc.create Soc_config.dual_core in
  let reference = attach_reference (Soc.engine soc) in
  ignore
    (Runtime.run_parallel soc [| (squeezenet16, mode); (squeezenet16, mode) |]);
  check_against_reference "dual-core squeezenet/16" (Soc.engine soc) reference

let test_reference_injected () =
  let soc = Soc.create Soc_config.dual_core in
  let reference = attach_reference (Soc.engine soc) in
  Soc.arm_injection soc ~seed:42 ~rate:0.0005;
  let rs =
    Runtime.run_parallel ~policy:Runtime.Retry_map soc
      [| (squeezenet16, mode); (squeezenet16, mode) |]
  in
  Alcotest.(check bool) "injection fired" true
    (Array.exists (fun r -> r.Runtime.r_faults <> []) rs);
  check_against_reference "injected squeezenet/16" (Soc.engine soc) reference

let serve_scenario =
  {
    Serve.default with
    Serve.sv_model = "squeezenet1.1";
    sv_scale = 16;
    sv_duration_ms = 1.0;
  }

let test_reference_warm_serve () =
  let path = Filename.temp_file "warm" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ignore (Serve.run ~warm_out:path serve_scenario);
      let soc = ref None and reference = ref None in
      let r =
        Serve.run
          ~attach:(fun s ->
            soc := Some s;
            reference := Some (attach_reference (Soc.engine s)))
          ~warm_in:path serve_scenario
      in
      let engine = Soc.engine (Option.get !soc) in
      let reference = Option.get !reference in
      (* Only post-restore acquires count, on both sides. *)
      let expected = reference () in
      check_against_reference "warm-restored serve" engine (fun () -> expected);
      Alcotest.(check (list (pair string (float 0.))))
        "sr_comp_p95 is the reference p95"
        (List.map (fun (name, _, (s : H.summary)) -> (name, s.H.p95)) expected)
        r.Serve.sr_comp_p95)

let test_reference_exec_cycle_point () =
  let p =
    Gem_dse.Point.make ~soc:Soc_config.dual_core ~model:"squeezenet1.1"
      ~scale:16 ()
  in
  let o = Gem_dse.Exec.evaluate p in
  let soc = Soc.create p.Gem_dse.Point.soc in
  let reference = attach_reference (Soc.engine soc) in
  let rq =
    Gem_sw.Backend.request ~config:p.Gem_dse.Point.soc
      (Array.make 2 (squeezenet16, p.Gem_dse.Point.mode))
  in
  ignore (Gem_sw.Backend_cycle.run_on soc rq);
  let expected =
    List.map (fun (name, _, (s : H.summary)) -> (name, s.H.p95)) (reference ())
  in
  Alcotest.(check bool) "reference nonempty" true (expected <> []);
  Alcotest.(check (list (pair string (float 0.))))
    "comp_p95_lat is the reference p95" expected
    o.Gem_dse.Outcome.comp_p95_lat

(* --- the quiet serving path ------------------------------------------------------ *)

let test_serve_stays_quiet () =
  let soc = ref None in
  let r = Serve.run ~attach:(fun s -> soc := Some s) serve_scenario in
  let engine = Soc.engine (Option.get !soc) in
  Alcotest.(check bool) "engine never went live" false (Engine.observing engine);
  Alcotest.(check bool) "p95 still reported" true (r.Serve.sr_comp_p95 <> []);
  Alcotest.(check (list (pair string (float 0.))))
    "p95 read from the resources"
    (List.map
       (fun (name, _, (s : H.summary)) -> (name, s.H.p95))
       (Engine.latency engine))
    r.Serve.sr_comp_p95

(* --- lazily allocated SRAM ------------------------------------------------------- *)

let test_soc_create_alloc () =
  ignore (Soc.create Soc_config.default);
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (Soc.create Soc_config.default));
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "Soc.create allocates %.0f B (< 512 KiB)" bytes)
    true
    (bytes < 512. *. 1024.)

let test_sram_lazy () =
  let s = Sram.create ~banks:2 ~rows_per_bank:2 ~elems_per_row:3 in
  Alcotest.(check (array int)) "fresh bank reads zero" [| 0; 0; 0 |]
    (Sram.read_row s ~row:3);
  Alcotest.(check int) "fresh element reads zero" 0
    (Sram.read_elem s ~row:0 ~col:2);
  Sram.write_row s ~row:3 [| 7; -1 |];
  Alcotest.(check (array int)) "write then read" [| 7; -1; 0 |]
    (Sram.read_row s ~row:3);
  Sram.write_elem s ~row:1 ~col:1 5;
  Alcotest.(check int) "elem round trip" 5 (Sram.read_elem s ~row:1 ~col:1);
  let s = Sram.create ~banks:2 ~rows_per_bank:2 ~elems_per_row:3 in
  Sram.write_row s ~row:3 [| 7; -1 |];
  (* Bytes pinned from the eagerly allocated SRAM: the untouched bank 0
     still serializes as zeros. *)
  let snap = Sram.snapshot ~with_data:true s in
  Alcotest.(check string) "functional snapshot bytes"
    {|{"banks":2,"rows_per_bank":2,"elems_per_row":3,"reads":0,"writes":1,"data":[[0,0,0,0,0,0],[0,0,0,7,-1,0]]}|}
    (Gem_util.Jsonx.to_string snap);
  let s' = Sram.create ~banks:2 ~rows_per_bank:2 ~elems_per_row:3 in
  Sram.restore s' snap;
  Alcotest.(check string) "restore round trip"
    (Gem_util.Jsonx.to_string snap)
    (Gem_util.Jsonx.to_string (Sram.snapshot ~with_data:true s'));
  Sram.fill s' 4;
  Alcotest.(check (array int)) "fill reaches untouched banks" [| 4; 4; 4 |]
    (Sram.read_row s' ~row:0);
  Sram.fill s' 0;
  Alcotest.(check (array int)) "fill 0 clears" [| 0; 0; 0 |]
    (Sram.read_row s' ~row:3)

let test_scratchpad_snapshot_bytes () =
  let sp = Gemmini.Scratchpad.create Gemmini.Params.default in
  Gemmini.Scratchpad.write_row sp
    (Gemmini.Local_addr.scratchpad ~row:5)
    ~offset:0
    (Array.init 16 (fun i -> i - 8));
  Gemmini.Scratchpad.write_row sp
    (Gemmini.Local_addr.accumulator ~row:9 ())
    ~offset:0
    (Array.init 16 (fun i -> i * 1000));
  let j = Gemmini.Scratchpad.snapshot ~with_data:true sp in
  (* Digest of the same snapshot taken with every bank allocated up
     front. *)
  Alcotest.(check string) "default scratchpad snapshot digest"
    "dcd648957a130a1d5511cb5d69c6d204"
    (Digest.to_hex (Digest.string (Gem_util.Jsonx.to_string j)))

let suite =
  [
    Alcotest.test_case "histogram: of_counts matches add" `Quick test_of_counts;
    Alcotest.test_case "resource: wait histogram buckets" `Quick
      test_resource_buckets;
    Alcotest.test_case "engine latency = reference: dual-core" `Quick
      test_reference_dual_core;
    Alcotest.test_case "engine latency = reference: injected faults" `Quick
      test_reference_injected;
    Alcotest.test_case "engine latency = reference: warm-restored serve"
      `Quick test_reference_warm_serve;
    Alcotest.test_case "Exec.evaluate cycle p95 = reference" `Quick
      test_reference_exec_cycle_point;
    Alcotest.test_case "serve without a trace stays quiet" `Quick
      test_serve_stays_quiet;
    Alcotest.test_case "alloc: Soc.create under 512 KiB" `Quick
      test_soc_create_alloc;
    Alcotest.test_case "sram: lazy banks" `Quick test_sram_lazy;
    Alcotest.test_case "sram: scratchpad snapshot bytes" `Quick
      test_scratchpad_snapshot_bytes;
  ]
