type kind =
  | Bus
  | Dram
  | Cache
  | Scratchpad
  | Tlb
  | Ptw
  | Dma
  | Pipeline
  | Host

let kind_label = function
  | Bus -> "bus"
  | Dram -> "dram"
  | Cache -> "cache"
  | Scratchpad -> "scratchpad"
  | Tlb -> "tlb"
  | Ptw -> "ptw"
  | Dma -> "dma"
  | Pipeline -> "pipeline"
  | Host -> "host"

type event =
  | Acquire of {
      component : string;
      time : Time.cycles;
      start : Time.cycles;
      finish : Time.cycles;
    }
  | Transfer of {
      component : string;
      time : Time.cycles;
      dir : [ `Read | `Write ];
      bytes : int;
    }
  | Translate of { component : string; time : Time.cycles; level : string }
  | Note of { component : string; time : Time.cycles; detail : string }
  | Fault of {
      component : string;
      time : Time.cycles;
      kind : string;
      detail : string;
    }
  | Span_open of {
      component : string;
      time : Time.cycles;
      name : string;
      cat : string;
      args : (string * string) list;
    }
  | Span_close of { component : string; time : Time.cycles; name : string }

let event_time = function
  | Acquire { time; _ } | Transfer { time; _ } | Translate { time; _ }
  | Note { time; _ } | Fault { time; _ } | Span_open { time; _ }
  | Span_close { time; _ } ->
      time

let event_component = function
  | Acquire { component; _ } | Transfer { component; _ }
  | Translate { component; _ } | Note { component; _ } | Fault { component; _ }
  | Span_open { component; _ } | Span_close { component; _ } ->
      component

let pp_event fmt = function
  | Acquire { component; time; start; finish } ->
      Format.fprintf fmt "[%a] %-16s acquire start=%a finish=%a" Time.pp time
        component Time.pp start Time.pp finish
  | Transfer { component; time; dir; bytes } ->
      Format.fprintf fmt "[%a] %-16s %s %d bytes" Time.pp time component
        (match dir with `Read -> "read" | `Write -> "write")
        bytes
  | Translate { component; time; level } ->
      Format.fprintf fmt "[%a] %-16s translate via %s" Time.pp time component
        level
  | Note { component; time; detail } ->
      Format.fprintf fmt "[%a] %-16s %s" Time.pp time component detail
  | Fault { component; time; kind; detail } ->
      Format.fprintf fmt "[%a] %-16s FAULT %s: %s" Time.pp time component kind
        detail
  | Span_open { component; time; name; cat; args } ->
      Format.fprintf fmt "[%a] %-16s span open %s (%s)%s" Time.pp time component
        name cat
        (String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v) args))
  | Span_close { component; time; name } ->
      Format.fprintf fmt "[%a] %-16s span close %s" Time.pp time component name

type sample = {
  p_requests : int;
  p_busy : Time.cycles;
  p_wait : Time.cycles;
  p_note : string;
}

type stat = {
  stat_name : string;
  stat_kind : kind;
  stat_requests : int;
  stat_busy : Time.cycles;
  stat_wait : Time.cycles;
  stat_faults : int;
  stat_note : string;
}

type impl =
  | Owned of { res : Resource.t; note : unit -> string }
  | Probe of (unit -> sample)

type entry = { e_name : string; e_kind : kind; e_impl : impl }

type t = {
  mutable clock : Time.cycles;
  mutable entries : entry list; (* reversed registration order *)
  name_counts : (string, int) Hashtbl.t;
  capacity : int;
  ring : event option array;
  mutable next : int;
  mutable total : int;
  mutable trace_on : bool;
  mutable sinks : (event -> unit) list;
  fault_counts : (string, int) Hashtbl.t; (* component name -> traps *)
  mutable total_faults : int;
}

let create ?(trace_capacity = 4096) ?(trace = false) () =
  if trace_capacity <= 0 then invalid_arg "Engine.create: capacity <= 0";
  {
    clock = Time.zero;
    entries = [];
    name_counts = Hashtbl.create 16;
    capacity = trace_capacity;
    ring = Array.make trace_capacity None;
    next = 0;
    total = 0;
    trace_on = trace;
    sinks = [];
    fault_counts = Hashtbl.create 16;
    total_faults = 0;
  }

(* --- registry ------------------------------------------------------------ *)

let unique_name t name =
  match Hashtbl.find_opt t.name_counts name with
  | None ->
      Hashtbl.replace t.name_counts name 1;
      name
  | Some n ->
      Hashtbl.replace t.name_counts name (n + 1);
      Printf.sprintf "%s#%d" name (n + 1)

let no_note () = ""

let resource ?(note = no_note) t ~kind ~name =
  let name = unique_name t name in
  let res = Resource.create ~name in
  t.entries <- { e_name = name; e_kind = kind; e_impl = Owned { res; note } } :: t.entries;
  res

let register_probe t ~kind ~name ~sample =
  let name = unique_name t name in
  t.entries <- { e_name = name; e_kind = kind; e_impl = Probe sample } :: t.entries

let components t =
  List.rev_map (fun e -> (e.e_name, e.e_kind)) t.entries

(* --- clock and events ---------------------------------------------------- *)

let now t = t.clock
let observe t time = if time > t.clock then t.clock <- time

let tracing t = t.trace_on
let set_tracing t b = t.trace_on <- b
let observing t = t.trace_on || t.sinks <> []
let live = observing
let add_sink t f = t.sinks <- t.sinks @ [ f ]

module P = Gem_obs.Profile

let emit t event =
  if !P.on then P.enter P.event;
  observe t (event_time event);
  if t.trace_on then begin
    t.ring.(t.next) <- Some event;
    t.next <- (t.next + 1) mod t.capacity;
    t.total <- t.total + 1
  end;
  List.iter (fun sink -> sink event) t.sinks;
  if !P.on then P.leave P.event

let events t =
  let out = ref [] in
  for i = 0 to t.capacity - 1 do
    let idx = (t.next + t.capacity - 1 - i) mod t.capacity in
    match t.ring.(idx) with Some e -> out := e :: !out | None -> ()
  done;
  !out

let event_count t = t.total

(* Events recorded while tracing but since overwritten by the wrapping
   ring. Sinks are unaffected (they see every event as it is emitted);
   only the retained [events] view loses history. *)
let dropped_events t = if t.total > t.capacity then t.total - t.capacity else 0

(* --- timing -------------------------------------------------------------- *)

let acquire t res ~now ~occupancy =
  if !P.on then P.enter P.acquire;
  let finish = Resource.acquire res ~now ~occupancy in
  observe t finish;
  if observing t then
    emit t
      (Acquire
         {
           component = Resource.name res;
           time = now;
           start = finish - occupancy;
           finish;
         });
  if !P.on then P.leave P.acquire;
  finish

let next_free _t res ~now = Resource.next_free res ~now

let occupy t res ~now ~start ~until =
  if !P.on then P.enter P.acquire;
  Resource.occupy_until res ~now ~start ~until;
  observe t until;
  if observing t then
    emit t
      (Acquire { component = Resource.name res; time = now; start; finish = until });
  if !P.on then P.leave P.acquire

(* --- faults --------------------------------------------------------------- *)

let faults t ~component =
  Option.value ~default:0 (Hashtbl.find_opt t.fault_counts component)

let total_faults t = t.total_faults

let trap t (fault : Fault.t) =
  Hashtbl.replace t.fault_counts fault.Fault.component
    (faults t ~component:fault.Fault.component + 1);
  t.total_faults <- t.total_faults + 1;
  observe t fault.Fault.cycle;
  if observing t then
    emit t
      (Fault
         {
           component = fault.Fault.component;
           time = fault.Fault.cycle;
           kind = Fault.cause_label fault.Fault.cause;
           detail = Fault.cause_detail fault.Fault.cause;
         });
  Fault.trap fault

(* --- metrics ------------------------------------------------------------- *)

let stat_of_entry t e =
  match e.e_impl with
  | Owned { res; note } ->
      {
        stat_name = e.e_name;
        stat_kind = e.e_kind;
        stat_requests = Resource.requests res;
        stat_busy = Resource.busy_cycles res;
        stat_wait = Resource.wait_cycles res;
        stat_faults = faults t ~component:e.e_name;
        stat_note = note ();
      }
  | Probe sample ->
      let s = sample () in
      {
        stat_name = e.e_name;
        stat_kind = e.e_kind;
        stat_requests = s.p_requests;
        stat_busy = s.p_busy;
        stat_wait = s.p_wait;
        stat_faults = faults t ~component:e.e_name;
        stat_note = s.p_note;
      }

let stats t = List.rev_map (stat_of_entry t) t.entries

let latency t =
  List.fold_left
    (fun acc e ->
      match e.e_impl with
      | Owned { res; _ } ->
          let n = Resource.wait_samples res in
          if n = 0 then acc
          else
            ( e.e_name,
              n,
              Gem_util.Stats.Histogram.summary (Resource.wait_histogram res) )
            :: acc
      | Probe _ -> acc)
    [] t.entries

(* Pull-based: closures over [t] are sampled when the registry is
   snapshotted, after the run — registration itself costs nothing on the
   simulation path. *)
let register_metrics ?(prefix = "engine.") t reg =
  let module M = Gem_obs.Metrics in
  M.pull_int reg (prefix ^ "clock") (fun () -> now t);
  M.pull_int reg (prefix ^ "events") (fun () -> event_count t);
  M.pull_int reg (prefix ^ "dropped_events") (fun () -> dropped_events t);
  M.pull_int reg (prefix ^ "faults") (fun () -> total_faults t);
  List.iter
    (fun e ->
      let base = prefix ^ "comp." ^ e.e_name in
      M.pull_int reg (base ^ ".requests") (fun () ->
          (stat_of_entry t e).stat_requests);
      M.pull_int reg (base ^ ".busy") (fun () -> (stat_of_entry t e).stat_busy);
      M.pull_int reg (base ^ ".wait") (fun () -> (stat_of_entry t e).stat_wait))
    (List.rev t.entries)

let horizon t = t.clock

let utilization_table t ?horizon:h () =
  let module Table = Gem_util.Table in
  let horizon = match h with Some h -> h | None -> t.clock in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "Engine profile (horizon = %s cycles)"
           (Table.fmt_int horizon))
      [
        "Component"; "Kind"; "Requests"; "Busy"; "Wait"; "Util"; "Faults";
        "Detail";
      ]
  in
  List.iter (fun i -> Table.set_align tbl i Table.Right) [ 2; 3; 4; 5; 6 ];
  List.iter
    (fun s ->
      let util =
        if horizon <= 0 then 0.
        else 100. *. float_of_int s.stat_busy /. float_of_int horizon
      in
      Table.add_row tbl
        [
          s.stat_name;
          kind_label s.stat_kind;
          Table.fmt_int s.stat_requests;
          Table.fmt_int s.stat_busy;
          Table.fmt_int s.stat_wait;
          Table.fmt_pct util;
          Table.fmt_int s.stat_faults;
          s.stat_note;
        ])
    (stats t);
  tbl

(* --- snapshot / restore ----------------------------------------------------

   The engine's mutable state is the chip-wide timing substrate: the clock,
   every owned resource's arbitration counters, the fault attribution
   table, and the retained event ring. All of it serializes to
   deterministic JSON (owned resources keyed by their unique registered
   names, fault counts sorted) so a snapshot of a quiesced SoC is
   byte-stable. Probes are excluded: the components they sample snapshot
   their own state. *)

module J = Gem_util.Jsonx
module Snap = Gem_util.Snap

let dir_token = function `Read -> "r" | `Write -> "w"

let dir_of_token = function
  | "r" -> `Read
  | "w" -> `Write
  | s -> Snap.fail "bad transfer direction %S" s

let event_to_json = function
  | Acquire { component; time; start; finish } ->
      J.Obj
        [ ("t", J.String "acq"); ("c", J.String component); ("at", J.Int time);
          ("s", J.Int start); ("f", J.Int finish) ]
  | Transfer { component; time; dir; bytes } ->
      J.Obj
        [ ("t", J.String "xfer"); ("c", J.String component); ("at", J.Int time);
          ("d", J.String (dir_token dir)); ("b", J.Int bytes) ]
  | Translate { component; time; level } ->
      J.Obj
        [ ("t", J.String "xlat"); ("c", J.String component); ("at", J.Int time);
          ("l", J.String level) ]
  | Note { component; time; detail } ->
      J.Obj
        [ ("t", J.String "note"); ("c", J.String component); ("at", J.Int time);
          ("n", J.String detail) ]
  | Fault { component; time; kind; detail } ->
      J.Obj
        [ ("t", J.String "fault"); ("c", J.String component); ("at", J.Int time);
          ("k", J.String kind); ("n", J.String detail) ]
  | Span_open { component; time; name; cat; args } ->
      J.Obj
        [ ("t", J.String "open"); ("c", J.String component); ("at", J.Int time);
          ("n", J.String name); ("k", J.String cat);
          ( "a",
            J.List
              (List.map
                 (fun (k, v) -> J.List [ J.String k; J.String v ])
                 args) ) ]
  | Span_close { component; time; name } ->
      J.Obj
        [ ("t", J.String "close"); ("c", J.String component);
          ("at", J.Int time); ("n", J.String name) ]

let event_of_json j =
  let component = Snap.get_str "c" j and time = Snap.get_int "at" j in
  match Snap.get_str "t" j with
  | "acq" ->
      Acquire
        { component; time; start = Snap.get_int "s" j;
          finish = Snap.get_int "f" j }
  | "xfer" ->
      Transfer
        { component; time; dir = dir_of_token (Snap.get_str "d" j);
          bytes = Snap.get_int "b" j }
  | "xlat" -> Translate { component; time; level = Snap.get_str "l" j }
  | "note" -> Note { component; time; detail = Snap.get_str "n" j }
  | "fault" ->
      Fault
        { component; time; kind = Snap.get_str "k" j;
          detail = Snap.get_str "n" j }
  | "open" ->
      let args =
        List.map
          (fun p ->
            match Snap.list p with
            | [ k; v ] -> (Snap.str k, Snap.str v)
            | _ -> Snap.fail "bad span arg pair")
          (Snap.get_list "a" j)
      in
      Span_open
        { component; time; name = Snap.get_str "n" j;
          cat = Snap.get_str "k" j; args }
  | "close" -> Span_close { component; time; name = Snap.get_str "n" j }
  | tag -> Snap.fail "unknown event tag %S" tag

let snapshot t =
  let resources =
    List.rev
      (List.filter_map
         (fun e ->
           match e.e_impl with
           | Probe _ -> None
           | Owned { res; _ } ->
               Some
                 ( e.e_name,
                   Snap.of_int_list
                     [ Resource.busy_until res; Resource.busy_cycles res;
                       Resource.requests res; Resource.wait_cycles res ] ))
         t.entries)
  in
  let fault_counts =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, J.Int v) :: acc) t.fault_counts [])
  in
  J.Obj
    [ ("clock", J.Int t.clock);
      ("resources", J.Obj resources);
      ("fault_counts", J.Obj fault_counts);
      ("total_faults", J.Int t.total_faults);
      ("event_total", J.Int t.total);
      ("events", J.List (List.map event_to_json (events t))) ]

let restore t j =
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e.e_impl with
      | Owned { res; _ } -> Hashtbl.replace by_name e.e_name res
      | Probe _ -> ())
    t.entries;
  let saved = Snap.obj (Snap.member "resources" j) in
  Snap.check ~what:"engine resource registry size"
    (List.length saved = Hashtbl.length by_name);
  List.iter
    (fun (name, v) ->
      match Hashtbl.find_opt by_name name with
      | None -> Snap.fail "snapshot resource %S not in this engine" name
      | Some res -> (
          match Snap.int_list v with
          | [ busy_until; busy_cycles; requests; wait_cycles ] ->
              Resource.force_state res ~busy_until ~busy_cycles ~requests
                ~wait_cycles
          | _ -> Snap.fail "resource %S: expected 4 counters" name))
    saved;
  t.clock <- Snap.get_int "clock" j;
  Hashtbl.reset t.fault_counts;
  List.iter
    (fun (k, v) -> Hashtbl.replace t.fault_counts k (Snap.int v))
    (Snap.obj (Snap.member "fault_counts" j));
  t.total_faults <- Snap.get_int "total_faults" j;
  let evs = List.map event_of_json (Snap.get_list "events" j) in
  let n = List.length evs in
  Snap.check ~what:"trace ring capacity" (n <= t.capacity);
  Array.fill t.ring 0 t.capacity None;
  List.iteri (fun i e -> t.ring.(i) <- Some e) evs;
  t.next <- n mod t.capacity;
  t.total <- Snap.get_int "event_total" j

let reset t =
  t.clock <- Time.zero;
  Array.fill t.ring 0 t.capacity None;
  t.next <- 0;
  t.total <- 0;
  Hashtbl.reset t.fault_counts;
  t.total_faults <- 0;
  List.iter
    (fun e -> match e.e_impl with Owned { res; _ } -> Resource.reset res | Probe _ -> ())
    t.entries
