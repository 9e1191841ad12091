(* Pinned simulated outputs and job failure accounting.

   Every simulated output the benchmark produces (cycle totals, per-layer
   cycles, serving reports, estimated cycles, microbenchmark checksums) is
   compared with the value recorded in perfbench/refs.txt, one
   "KEY VALUE" line per output. A job fails when it raises or when any of its
   outputs differs; failures are counted, never skipped. [--pin] mode
   records instead of comparing and rewrites the file. *)

type t = {
  table : (string, string) Hashtbl.t;
  pinning : bool;
  mutable recorded : (string * string) list;
}

let load ~pinning path =
  let table = Hashtbl.create 1024 in
  if not pinning then begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          while true do
            let line = input_line ic in
            match String.index_opt line ' ' with
            | Some i when line <> "" && line.[0] <> '#' ->
                Hashtbl.replace table (String.sub line 0 i)
                  (String.sub line (i + 1) (String.length line - i - 1))
            | _ -> ()
          done
        with End_of_file -> ())
  end;
  { table; pinning; recorded = [] }

let mismatches = ref 0

(* [check t key value] is true when [value] equals the pinned output. *)
let check t key value =
  if t.pinning then
    match List.assoc_opt key t.recorded with
    | None ->
        t.recorded <- (key, value) :: t.recorded;
        true
    | Some v when v = value -> true
    | Some v ->
        Printf.eprintf "perfbench: %s is not deterministic: %s then %s\n%!" key v
          value;
        false
  else
    match Hashtbl.find_opt t.table key with
    | Some v when v = value -> true
    | pinned ->
        incr mismatches;
        Printf.eprintf "perfbench: %s: got %s, pinned %s\n%!" key value
          (Option.value pinned ~default:"(none)");
        false

let check_all t pairs =
  List.fold_left (fun ok (k, v) -> check t k v && ok) true pairs

(* A pinned output, for figures derived from references (the analytic
   error against the cycle engine). *)
let value t key =
  match List.assoc_opt key t.recorded with
  | Some v -> v
  | None -> (
      match Hashtbl.find_opt t.table key with
      | Some v -> v
      | None -> failwith ("perfbench: no pinned value for " ^ key))

let int t key = int_of_string (value t key)

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        "# Simulated outputs pinned for perfbench; regenerate with \
         `perfbench.exe --pin` only when a change is meant to move them.\n";
      List.iter
        (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v)
        (List.sort compare t.recorded))

(* --- job accounting ---------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

(* Runs one pass of [jobs] jobs: [f] returns its result and how many of
   those jobs produced an output that differs from its reference. An
   exception fails every job of the pass. *)
let job ?(jobs = 1) name f =
  attempted := !attempted + jobs;
  match f () with
  | r, 0 -> Some r
  | _, bad ->
      failed := !failed + min jobs bad;
      None
  | exception e ->
      failed := !failed + jobs;
      Printf.eprintf "perfbench: job %s raised %s\n%!" name
        (Printexc.to_string e);
      None

(* Failed-job count of one job from its reference checks. *)
let bad ok = if ok then 0 else 1
