(* In-memory span recorder for the traced run. Spans are recorded by the
   benchmark around its calls into the simulator's public functions, kept in
   memory, and written once at the end. Levels: pass > job > layer (or
   lowering / execution / request / point). *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  job : int;  (** 0 outside any job *)
  t0 : float;  (** seconds since the recorder was created *)
  t1 : float;
}

type t = {
  origin : float;
  mutable next_id : int;
  mutable next_job : int;
  mutable stack : (int * int) list;  (** open (span id, job id), innermost first *)
  mutable closed : span list;
}

let create () =
  { origin = Clock.now (); next_id = 1; next_job = 1; stack = []; closed = [] }

let clock t = Clock.now () -. t.origin
let current t = match t.stack with [] -> (0, 0) | top :: _ -> top

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* Records a span that already happened, under the currently open span. *)
let add t ~name ~t0 ~t1 =
  let parent, job = current t in
  let id = fresh_id t in
  t.closed <- { id; name; parent; job; t0; t1 } :: t.closed

let with_span ?(new_job = false) t name f =
  let parent, job = current t in
  let job =
    if new_job then begin
      let j = t.next_job in
      t.next_job <- j + 1;
      j
    end
    else job
  in
  let id = fresh_id t in
  let t0 = clock t in
  t.stack <- (id, job) :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      t.stack <- List.tl t.stack;
      t.closed <- { id; name; parent; job; t0; t1 = clock t } :: t.closed)
    f

let spans t = List.rev t.closed

let duration_of t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0. t.closed

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\": %d, \"name\": %S, \"parent\": %d, \"job\": %d, \
             \"start_s\": %.9f, \"end_s\": %.9f}\n"
            (if i = 0 then "" else ",")
            s.id s.name s.parent s.job s.t0 s.t1)
        (spans t);
      output_string oc "]\n")
