module Stats = Gem_util.Stats
module J = Gem_util.Jsonx
module Table = Gem_util.Table

(* Per-component time series fed by Acquire/Transfer events. Queue
   latency is not here: every resource keeps its own wait histogram
   ([Engine.latency]). *)
type comp = {
  c_name : string;
  c_busy : Stats.Series.t; (* busy cycles, attributed to the start window *)
  c_backlog : Stats.Series.t; (* outstanding occupancy: finish - request *)
  c_bytes : Stats.Series.t; (* transferred bytes per window *)
  mutable c_transfers : int;
}

type fault_mark = {
  f_component : string;
  f_time : Time.cycles;
  f_kind : string;
  f_detail : string;
}

type t = {
  engine : Engine.t;
  window : int;
  recorder : Span.t;
  spans_on : bool;
  comps : (string, comp) Hashtbl.t;
  mutable comp_order : string list; (* first-seen, reversed *)
  mutable faults : fault_mark list; (* reversed *)
}

let comp_for t name =
  match Hashtbl.find_opt t.comps name with
  | Some c -> c
  | None ->
      let w = float_of_int t.window in
      let c =
        {
          c_name = name;
          c_busy = Stats.Series.create ~window:w;
          c_backlog = Stats.Series.create ~window:w;
          c_bytes = Stats.Series.create ~window:w;
          c_transfers = 0;
        }
      in
      Hashtbl.add t.comps name c;
      t.comp_order <- name :: t.comp_order;
      c

let on_event t (ev : Engine.event) =
  (match ev with
  | Engine.Acquire { component; time; start; finish } ->
      let c = comp_for t component in
      Stats.Series.add c.c_busy ~time:(float_of_int start)
        (float_of_int (finish - start));
      Stats.Series.add c.c_backlog ~time:(float_of_int time)
        (float_of_int (finish - time))
  | Engine.Transfer { component; time; bytes; _ } ->
      let c = comp_for t component in
      c.c_transfers <- c.c_transfers + 1;
      Stats.Series.add c.c_bytes ~time:(float_of_int time) (float_of_int bytes)
  | Engine.Fault { component; time; kind; detail } ->
      t.faults <-
        { f_component = component; f_time = time; f_kind = kind; f_detail = detail }
        :: t.faults
  | Engine.Span_open _ | Engine.Span_close _ | Engine.Translate _
  | Engine.Note _ ->
      ());
  if t.spans_on then Span.on_event t.recorder ev

let attach ?(window = 65536) ?(spans = true) ?acquire_spans engine =
  if window <= 0 then invalid_arg "Export.attach: window <= 0";
  let t =
    {
      engine;
      window;
      recorder = Span.create ?acquire_spans ();
      spans_on = spans;
      comps = Hashtbl.create 16;
      comp_order = [];
      faults = [];
    }
  in
  Engine.add_sink engine (on_event t);
  t

let recorder t = t.recorder
let engine t = t.engine
let finalize t = Span.finalize t.recorder ~horizon:(Engine.horizon t.engine)

(* --- track table ---------------------------------------------------------

   One Chrome "process" per core scope (shared components form the "soc"
   process), one "thread" per component. Order is the engine registration
   order, which is construction order and thus deterministic; components
   that emitted events without registering (unit tests with bare engines)
   are appended in sorted order. *)

type track = { tk_name : string; tk_scope : string; tk_pid : int; tk_tid : int }

let scope_of_name name =
  match String.index_opt name '/' with
  | Some i -> String.sub name 0 i
  | None -> "soc"

let tracks t =
  let registered = List.map fst (Engine.components t.engine) in
  let seen = Hashtbl.create 32 in
  List.iter (fun n -> Hashtbl.replace seen n ()) registered;
  let extra = ref [] in
  let note n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      extra := n :: !extra
    end
  in
  List.iter note (List.rev t.comp_order);
  Span.iter t.recorder (fun s -> note s.Span.component);
  let names = registered @ List.sort compare !extra in
  let pids = Hashtbl.create 8 in
  let next_pid = ref 0 in
  let tids = Hashtbl.create 8 in
  List.map
    (fun name ->
      let scope = scope_of_name name in
      let pid =
        match Hashtbl.find_opt pids scope with
        | Some p -> p
        | None ->
            incr next_pid;
            Hashtbl.add pids scope !next_pid;
            !next_pid
      in
      let tid =
        let n = Option.value ~default:0 (Hashtbl.find_opt tids scope) + 1 in
        Hashtbl.replace tids scope n;
        n
      in
      { tk_name = name; tk_scope = scope; tk_pid = pid; tk_tid = tid })
    names

(* --- chrome trace export ------------------------------------------------- *)

(* The file is one big JSON array. Each event is built as a Jsonx value and
   printed on its own line, so the emitter stays deterministic and the
   whole file still parses as standard JSON. *)
let write_chrome t out =
  let tks = tracks t in
  let track_tbl = Hashtbl.create 32 in
  List.iter (fun tk -> Hashtbl.replace track_tbl tk.tk_name tk) tks;
  let track name =
    match Hashtbl.find_opt track_tbl name with
    | Some tk -> tk
    | None -> { tk_name = name; tk_scope = "soc"; tk_pid = 1; tk_tid = 0 }
  in
  let first = ref true in
  let event j =
    if !first then first := false else out ",\n";
    out (J.to_string j)
  in
  out "[\n";
  (* A wrapped engine ring silently lost history; say so in-band rather
     than shipping a trace that looks complete. Only emitted when events
     were actually dropped, so unwrapped traces are byte-identical to
     before. *)
  let dropped = Engine.dropped_events t.engine in
  if dropped > 0 then
    event
      (J.Obj
         [
           ("ph", J.String "i");
           ("name", J.String "dropped_events");
           ("cat", J.String "meta");
           ("s", J.String "g");
           ("pid", J.Int 0);
           ("tid", J.Int 0);
           ("ts", J.Int 0);
           ("args", J.Obj [ ("dropped", J.Int dropped) ]);
         ]);
  (* Metadata: process and thread names. *)
  let seen_pid = Hashtbl.create 8 in
  List.iter
    (fun tk ->
      if not (Hashtbl.mem seen_pid tk.tk_pid) then begin
        Hashtbl.replace seen_pid tk.tk_pid ();
        event
          (J.Obj
             [
               ("ph", J.String "M");
               ("name", J.String "process_name");
               ("pid", J.Int tk.tk_pid);
               ("args", J.Obj [ ("name", J.String tk.tk_scope) ]);
             ]);
        event
          (J.Obj
             [
               ("ph", J.String "M");
               ("name", J.String "process_sort_index");
               ("pid", J.Int tk.tk_pid);
               ("args", J.Obj [ ("sort_index", J.Int tk.tk_pid) ]);
             ])
      end;
      event
        (J.Obj
           [
             ("ph", J.String "M");
             ("name", J.String "thread_name");
             ("pid", J.Int tk.tk_pid);
             ("tid", J.Int tk.tk_tid);
             ("args", J.Obj [ ("name", J.String tk.tk_name) ]);
           ]);
      event
        (J.Obj
           [
             ("ph", J.String "M");
             ("name", J.String "thread_sort_index");
             ("pid", J.Int tk.tk_pid);
             ("tid", J.Int tk.tk_tid);
             ("args", J.Obj [ ("sort_index", J.Int tk.tk_tid) ]);
           ]))
    tks;
  (* Spans. Network and layer spans obey sync-slice stack discipline on
     their track; kernels, commands and DMA bursts overlap their siblings
     (issue-side pipelining), so they render as async b/e pairs. *)
  Span.iter t.recorder (fun s ->
      let tk = track s.Span.component in
      let args =
        ("span", J.Int s.Span.id)
        :: ("parent", J.Int s.Span.parent)
        :: List.map (fun (k, v) -> (k, J.String v)) s.Span.args
      in
      let t1 = if s.Span.t1 < 0 then s.Span.t0 else s.Span.t1 in
      match s.Span.cat with
      | "network" | "layer" | "acquire" ->
          event
            (J.Obj
               [
                 ("ph", J.String "X");
                 ("name", J.String s.Span.name);
                 ("cat", J.String s.Span.cat);
                 ("pid", J.Int tk.tk_pid);
                 ("tid", J.Int tk.tk_tid);
                 ("ts", J.Int s.Span.t0);
                 ("dur", J.Int (t1 - s.Span.t0));
                 ("args", J.Obj args);
               ])
      | _ ->
          event
            (J.Obj
               [
                 ("ph", J.String "b");
                 ("name", J.String s.Span.name);
                 ("cat", J.String s.Span.cat);
                 ("id", J.Int s.Span.id);
                 ("pid", J.Int tk.tk_pid);
                 ("tid", J.Int tk.tk_tid);
                 ("ts", J.Int s.Span.t0);
                 ("args", J.Obj args);
               ]);
          event
            (J.Obj
               [
                 ("ph", J.String "e");
                 ("name", J.String s.Span.name);
                 ("cat", J.String s.Span.cat);
                 ("id", J.Int s.Span.id);
                 ("pid", J.Int tk.tk_pid);
                 ("tid", J.Int tk.tk_tid);
                 ("ts", J.Int t1);
               ]));
  (* Counter tracks: windowed utilization, outstanding occupancy and
     transferred bytes per component with activity. *)
  let counter ~name ~pid ~ts ~key v =
    event
      (J.Obj
         [
           ("ph", J.String "C");
           ("name", J.String name);
           ("pid", J.Int pid);
           ("ts", J.Int ts);
           ("args", J.Obj [ (key, v) ]);
         ])
  in
  List.iter
    (fun tk ->
      match Hashtbl.find_opt t.comps tk.tk_name with
      | None -> ()
      | Some c ->
          let w = float_of_int t.window in
          Array.iter
            (fun (time, sum, _) ->
              counter
                ~name:(tk.tk_name ^ " util %")
                ~pid:tk.tk_pid ~ts:(int_of_float time) ~key:"value"
                (J.Float (100. *. sum /. w)))
            (Stats.Series.window_totals c.c_busy);
          Array.iter
            (fun (time, mean) ->
              counter
                ~name:(tk.tk_name ^ " outstanding")
                ~pid:tk.tk_pid ~ts:(int_of_float time) ~key:"cycles"
                (J.Float mean))
            (Stats.Series.windows c.c_backlog);
          if c.c_transfers > 0 then
            Array.iter
              (fun (time, sum, _) ->
                counter
                  ~name:(tk.tk_name ^ " bytes")
                  ~pid:tk.tk_pid ~ts:(int_of_float time) ~key:"value"
                  (J.Int (int_of_float sum)))
              (Stats.Series.window_totals c.c_bytes))
    tks;
  (* Faults as instant events on their component's track. *)
  List.iter
    (fun f ->
      let tk = track f.f_component in
      event
        (J.Obj
           [
             ("ph", J.String "i");
             ("name", J.String f.f_kind);
             ("cat", J.String "fault");
             ("s", J.String "t");
             ("pid", J.Int tk.tk_pid);
             ("tid", J.Int tk.tk_tid);
             ("ts", J.Int f.f_time);
             ("args", J.Obj [ ("detail", J.String f.f_detail) ]);
           ]))
    (List.rev t.faults);
  out "\n]\n"

let chrome_string t =
  let buf = Buffer.create 65536 in
  write_chrome t (Buffer.add_string buf);
  Buffer.contents buf

let write_chrome_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> write_chrome t (output_string oc))

(* --- text report ---------------------------------------------------------- *)

let fmt_cycles f = if Float.is_nan f then "-" else Table.fmt_f ~dec:1 f

let report t =
  let horizon = Engine.horizon t.engine in
  let buf = Buffer.create 4096 in
  (* Per-layer breakdown from the span tree. *)
  let layers = ref [] and kernels = Hashtbl.create 16 in
  let commands = Hashtbl.create 16 in
  (* layer id of a span: nearest ancestor with cat = "layer" *)
  let rec layer_of id =
    if id < 0 then -1
    else
      let s = Span.get t.recorder id in
      if s.Span.cat = "layer" then id else layer_of s.Span.parent
  in
  Span.iter t.recorder (fun s ->
      match s.Span.cat with
      | "layer" -> layers := s :: !layers
      | "kernel" ->
          let l = layer_of s.Span.parent in
          let prev = Option.value ~default:[] (Hashtbl.find_opt kernels l) in
          if not (List.mem s.Span.name prev) then
            Hashtbl.replace kernels l (s.Span.name :: prev)
      | "command" ->
          let l = layer_of s.Span.parent in
          Hashtbl.replace commands l
            (Option.value ~default:0 (Hashtbl.find_opt commands l) + 1)
      | _ -> ());
  let layers = List.rev !layers in
  (* Multi-core runs repeat layer names; prefix each row with its core so
     rows line up with the core-prefixed component names elsewhere. *)
  let scopes =
    List.sort_uniq compare
      (List.map (fun (s : Span.span) -> scope_of_name s.Span.component) layers)
  in
  let label (s : Span.span) =
    match scopes with
    | [] | [ _ ] -> s.Span.name
    | _ -> scope_of_name s.Span.component ^ ":" ^ s.Span.name
  in
  if layers <> [] then begin
    let tbl =
      Table.create
        ~title:
          (Printf.sprintf "Layer profile (horizon = %s cycles)"
             (Table.fmt_int horizon))
        [ "Layer"; "Kernels"; "Commands"; "Cycles"; "Share" ]
    in
    List.iter (fun i -> Table.set_align tbl i Table.Right) [ 2; 3; 4 ];
    List.iter
      (fun (s : Span.span) ->
        let cycles = max 0 (s.Span.t1 - s.Span.t0) in
        let share =
          if horizon <= 0 then 0.
          else 100. *. float_of_int cycles /. float_of_int horizon
        in
        Table.add_row tbl
          [
            label s;
            String.concat "+"
              (List.rev
                 (Option.value ~default:[]
                    (Hashtbl.find_opt kernels s.Span.id)));
            Table.fmt_int
              (Option.value ~default:0 (Hashtbl.find_opt commands s.Span.id));
            Table.fmt_int cycles;
            Table.fmt_pct share;
          ])
      layers;
    Buffer.add_string buf (Table.render tbl);
    Buffer.add_char buf '\n'
  end;
  (* Queue-latency distribution per component. *)
  (match Engine.latency t.engine with
  | [] -> ()
  | rows ->
      let tbl =
        Table.create ~title:"Queue latency (cycles from request to service)"
          [ "Component"; "Acquires"; "p50"; "p95"; "p99"; "Max" ]
      in
      List.iter (fun i -> Table.set_align tbl i Table.Right) [ 1; 2; 3; 4; 5 ];
      List.iter
        (fun (name, acquires, (s : Stats.Histogram.summary)) ->
          Table.add_row tbl
            [
              name;
              Table.fmt_int acquires;
              fmt_cycles s.Stats.Histogram.p50;
              fmt_cycles s.Stats.Histogram.p95;
              fmt_cycles s.Stats.Histogram.p99;
              fmt_cycles s.Stats.Histogram.max;
            ])
        rows;
      Buffer.add_string buf (Table.render tbl));
  (* Span bookkeeping anomalies are worth surfacing, not hiding. *)
  let orphans = Span.orphan_closes t.recorder
  and forced = Span.forced_closes t.recorder in
  if orphans > 0 || forced > 0 then
    Buffer.add_string buf
      (Printf.sprintf "span anomalies: %d orphan close(s), %d forced close(s)\n"
         orphans forced);
  (* Ring truncation must not be silent: the retained-event view is what
     [events]-based consumers see, and it is incomplete once wrapped. *)
  let dropped = Engine.dropped_events t.engine in
  if dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "trace ring wrapped: %d of %d event(s) dropped from the retained view\n"
         dropped
         (Engine.event_count t.engine));
  Buffer.contents buf

(* --- streaming chrome export ----------------------------------------------

   The batch exporter above buffers the whole span tree in memory before
   writing; long serving runs would grow without bound. The streaming
   writer is an engine sink that appends Chrome events to its output as
   they retire: async spans (kernel/command/dma/request) cost nothing to
   hold — the "b" half is written at open — and sync slices
   (network/layer) are held only while open, so memory is bounded by the
   span nesting depth, not the run length.

   Track metadata is emitted lazily, the first time a component appears;
   because the simulation is deterministic, first-appearance order is
   too, and two identical runs stream byte-identical files. Counter
   tracks are deliberately out of scope — attach a batch collector
   alongside when those are wanted. *)

module Streaming = struct
  type frame = {
    sf_id : int;
    sf_parent : int;
    sf_name : string;
    sf_cat : string;
    sf_component : string;
    sf_t0 : Time.cycles;
    sf_args : (string * string) list;
  }

  type stream = {
    st_engine : Engine.t;
    st_out : string -> unit;
    mutable st_close : unit -> unit;
    mutable st_first : bool;
    st_pids : (string, int) Hashtbl.t; (* scope -> pid *)
    mutable st_next_pid : int;
    st_tid_counts : (string, int) Hashtbl.t; (* scope -> tids handed out *)
    st_tracks : (string, int * int) Hashtbl.t; (* component -> (pid, tid) *)
    st_stacks : (string, frame list ref) Hashtbl.t; (* scope -> open spans *)
    st_scope_memo : (string, string) Hashtbl.t;
    mutable st_scope : string; (* last scope that opened a span *)
    mutable st_next_id : int;
    mutable st_orphans : int;
    mutable st_forced : int;
    mutable st_events : int;
    mutable st_finished : bool;
  }

  type t = stream

  let event t j =
    if t.st_first then t.st_first <- false else t.st_out ",\n";
    t.st_out (J.to_string j);
    t.st_events <- t.st_events + 1

  (* Same dynamic scoping as Span.on_event: unprefixed (shared)
     components attribute to the scope that most recently opened a span,
     which is the executing core. *)
  let dyn_scope t component =
    match Hashtbl.find_opt t.st_scope_memo component with
    | Some s -> s
    | None -> (
        match String.index_opt component '/' with
        | Some i ->
            let s = String.sub component 0 i in
            Hashtbl.replace t.st_scope_memo component s;
            s
        | None -> if t.st_scope = "" then component else t.st_scope)

  let stack_for t scope =
    match Hashtbl.find_opt t.st_stacks scope with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add t.st_stacks scope s;
        s

  (* Track assignment mirrors the batch exporter (one process per static
     scope, one thread per component) but is lazy: metadata rows are
     written right before the first event that needs them. *)
  let track t component =
    match Hashtbl.find_opt t.st_tracks component with
    | Some pt -> pt
    | None ->
        let scope = scope_of_name component in
        let pid =
          match Hashtbl.find_opt t.st_pids scope with
          | Some p -> p
          | None ->
              t.st_next_pid <- t.st_next_pid + 1;
              let p = t.st_next_pid in
              Hashtbl.add t.st_pids scope p;
              event t
                (J.Obj
                   [
                     ("ph", J.String "M");
                     ("name", J.String "process_name");
                     ("pid", J.Int p);
                     ("args", J.Obj [ ("name", J.String scope) ]);
                   ]);
              event t
                (J.Obj
                   [
                     ("ph", J.String "M");
                     ("name", J.String "process_sort_index");
                     ("pid", J.Int p);
                     ("args", J.Obj [ ("sort_index", J.Int p) ]);
                   ]);
              p
        in
        let tid =
          let n =
            Option.value ~default:0 (Hashtbl.find_opt t.st_tid_counts scope) + 1
          in
          Hashtbl.replace t.st_tid_counts scope n;
          n
        in
        event t
          (J.Obj
             [
               ("ph", J.String "M");
               ("name", J.String "thread_name");
               ("pid", J.Int pid);
               ("tid", J.Int tid);
               ("args", J.Obj [ ("name", J.String component) ]);
             ]);
        event t
          (J.Obj
             [
               ("ph", J.String "M");
               ("name", J.String "thread_sort_index");
               ("pid", J.Int pid);
               ("tid", J.Int tid);
               ("args", J.Obj [ ("sort_index", J.Int tid) ]);
             ]);
        Hashtbl.add t.st_tracks component (pid, tid);
        (pid, tid)

  let is_sync cat = cat = "network" || cat = "layer" || cat = "acquire"

  let frame_args fr =
    ("span", J.Int fr.sf_id)
    :: ("parent", J.Int fr.sf_parent)
    :: List.map (fun (k, v) -> (k, J.String v)) fr.sf_args

  (* Writes a frame's terminating record: the full X slice for sync
     categories (only now is the duration known), the "e" half for async
     ones (their "b" went out at open time). *)
  let close_frame t fr ~time =
    let pid, tid = track t fr.sf_component in
    if is_sync fr.sf_cat then
      event t
        (J.Obj
           [
             ("ph", J.String "X");
             ("name", J.String fr.sf_name);
             ("cat", J.String fr.sf_cat);
             ("pid", J.Int pid);
             ("tid", J.Int tid);
             ("ts", J.Int fr.sf_t0);
             ("dur", J.Int (time - fr.sf_t0));
             ("args", J.Obj (frame_args fr));
           ])
    else
      event t
        (J.Obj
           [
             ("ph", J.String "e");
             ("name", J.String fr.sf_name);
             ("cat", J.String fr.sf_cat);
             ("id", J.Int fr.sf_id);
             ("pid", J.Int pid);
             ("tid", J.Int tid);
             ("ts", J.Int time);
           ])

  let on_event t (ev : Engine.event) =
    if not t.st_finished then
      match ev with
      | Engine.Span_open { component; time; name; cat; args } ->
          let scope = dyn_scope t component in
          t.st_scope <- scope;
          let stack = stack_for t scope in
          let parent =
            match !stack with [] -> -1 | fr :: _ -> fr.sf_id
          in
          let fr =
            {
              sf_id = t.st_next_id;
              sf_parent = parent;
              sf_name = name;
              sf_cat = cat;
              sf_component = component;
              sf_t0 = time;
              sf_args = args;
            }
          in
          t.st_next_id <- t.st_next_id + 1;
          stack := fr :: !stack;
          if not (is_sync cat) then begin
            let pid, tid = track t component in
            event t
              (J.Obj
                 [
                   ("ph", J.String "b");
                   ("name", J.String name);
                   ("cat", J.String cat);
                   ("id", J.Int fr.sf_id);
                   ("pid", J.Int pid);
                   ("tid", J.Int tid);
                   ("ts", J.Int time);
                   ("args", J.Obj (frame_args fr));
                 ])
          end
      | Engine.Span_close { component; time; name } ->
          let scope = dyn_scope t component in
          let stack = stack_for t scope in
          if List.exists (fun fr -> fr.sf_name = name) !stack then begin
            (* Same discipline as Span: close the innermost open span
               with this name; anything still open inside it is
               force-closed at the same stamp. *)
            let rec close = function
              | [] -> []
              | fr :: rest ->
                  close_frame t fr ~time;
                  if fr.sf_name = name then rest
                  else begin
                    t.st_forced <- t.st_forced + 1;
                    close rest
                  end
            in
            stack := close !stack
          end
          else t.st_orphans <- t.st_orphans + 1
      | Engine.Fault { component; time; kind; detail } ->
          let pid, tid = track t component in
          event t
            (J.Obj
               [
                 ("ph", J.String "i");
                 ("name", J.String kind);
                 ("cat", J.String "fault");
                 ("s", J.String "t");
                 ("pid", J.Int pid);
                 ("tid", J.Int tid);
                 ("ts", J.Int time);
                 ("args", J.Obj [ ("detail", J.String detail) ]);
               ])
      | Engine.Acquire _ | Engine.Transfer _ | Engine.Translate _
      | Engine.Note _ ->
          ()

  let attach engine ~out =
    let t =
      {
        st_engine = engine;
        st_out = out;
        st_close = (fun () -> ());
        st_first = true;
        st_pids = Hashtbl.create 8;
        st_next_pid = 0;
        st_tid_counts = Hashtbl.create 8;
        st_tracks = Hashtbl.create 32;
        st_stacks = Hashtbl.create 8;
        st_scope_memo = Hashtbl.create 16;
        st_scope = "";
        st_next_id = 0;
        st_orphans = 0;
        st_forced = 0;
        st_events = 0;
        st_finished = false;
      }
    in
    out "[\n";
    Engine.add_sink engine (on_event t);
    t

  let attach_file engine path =
    let oc = open_out path in
    let t = attach engine ~out:(output_string oc) in
    t.st_close <- (fun () -> close_out oc);
    t

  let finish t =
    if not t.st_finished then begin
      let horizon = Engine.horizon t.st_engine in
      (* Deterministic sweep order for still-open frames. *)
      let scopes =
        List.sort compare
          (Hashtbl.fold (fun k _ acc -> k :: acc) t.st_stacks [])
      in
      List.iter
        (fun scope ->
          let stack = stack_for t scope in
          List.iter
            (fun fr ->
              t.st_forced <- t.st_forced + 1;
              close_frame t fr ~time:horizon)
            !stack;
          stack := [])
        scopes;
      t.st_out "\n]\n";
      t.st_finished <- true;
      t.st_close ()
    end

  let events_written t = t.st_events
  let orphan_closes t = t.st_orphans
  let forced_closes t = t.st_forced
end
