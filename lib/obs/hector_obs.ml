module Json = Json

type span = {
  name : string;
  kind : string;
  start_ms : float;
  duration_ms : float;
  children : span list;
}

(* In-flight/recorded spans, children kept newest-first until exported. *)
type node = {
  nname : string;
  nkind : string;
  nstart_ms : float;
  mutable ndur_ms : float;
  mutable nchildren : node list;  (* newest first *)
}

type t = {
  on : bool;
  origin : float;  (* Unix.gettimeofday at creation, seconds *)
  mutable roots : node list;  (* newest first *)
  mutable stack : node list;  (* innermost open span first *)
  values : (string, int ref) Hashtbl.t;
}

let disabled =
  { on = false; origin = 0.0; roots = []; stack = []; values = Hashtbl.create 1 }

let create ?(enabled = true) () =
  if not enabled then disabled
  else
    { on = true; origin = Unix.gettimeofday (); roots = []; stack = []; values = Hashtbl.create 16 }

let enabled t = t.on

let now_ms t = (Unix.gettimeofday () -. t.origin) *. 1e3

let time t ~kind name f =
  if not t.on then f ()
  else begin
    let n = { nname = name; nkind = kind; nstart_ms = now_ms t; ndur_ms = 0.0; nchildren = [] } in
    t.stack <- n :: t.stack;
    let finish () =
      n.ndur_ms <- now_ms t -. n.nstart_ms;
      (match t.stack with _ :: rest -> t.stack <- rest | [] -> ());
      match t.stack with
      | parent :: _ -> parent.nchildren <- n :: parent.nchildren
      | [] -> t.roots <- n :: t.roots
    in
    Fun.protect ~finally:finish f
  end

let add t name n =
  if t.on then
    match Hashtbl.find_opt t.values name with
    | Some r -> r := !r + n
    | None -> Hashtbl.add t.values name (ref n)

let counter t name = match Hashtbl.find_opt t.values name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.values []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* nodes are accumulated newest-first; export in chronological order *)
let rec export (n : node) =
  {
    name = n.nname;
    kind = n.nkind;
    start_ms = n.nstart_ms;
    duration_ms = n.ndur_ms;
    children = List.rev_map export n.nchildren;
  }

let spans t = List.rev_map export t.roots

let reset t =
  t.roots <- [];
  t.stack <- [];
  Hashtbl.reset t.values

(* --- export ------------------------------------------------------- *)

let json_escape = Json.escape

let rec span_json s =
  Json.Obj
    [
      ("name", Json.Str s.name);
      ("kind", Json.Str s.kind);
      ("start_ms", Json.Num s.start_ms);
      ("duration_ms", Json.Num s.duration_ms);
      ("children", Json.Arr (List.map span_json s.children));
    ]

let span_tree t = Json.Arr (List.map span_json (spans t))
let spans_json t = Json.to_string (span_tree t)

let trace_events t ~pid =
  let rec walk acc s =
    List.fold_left walk
      (Json.Obj
         [
           ("name", Json.Str s.name);
           ("cat", Json.Str s.kind);
           ("ph", Json.Str "X");
           ("ts", Json.Num (s.start_ms *. 1e3));
           ("dur", Json.Num (s.duration_ms *. 1e3));
           ("pid", Json.int pid);
           ("tid", Json.int 1);
         ]
      :: acc)
      s.children
  in
  List.rev (List.fold_left walk [] (spans t))

(* --- shared metrics schema ------------------------------------------- *)

module Metrics = struct
  type field = string * Json.t

  let int k v : field = (k, Json.int v)
  let float k v : field = (k, Json.Num v)
  let str k v : field = (k, Json.Str v)

  let comm ~posted_ms ~exposed_ms =
    let overlap_ratio =
      if posted_ms > 0.0 then Stdlib.max 0.0 ((posted_ms -. exposed_ms) /. posted_ms)
      else 0.0
    in
    ( "comm",
      Json.Obj
        [
          float "posted_ms" posted_ms;
          float "exposed_ms" exposed_ms;
          float "overlap_ratio" overlap_ratio;
        ] )

  let obs t =
    if t.on then
      [
        ("counters", Json.Obj (List.map (fun (k, v) -> int k v) (counters t)));
        ("spans", span_tree t);
      ]
    else []

  let envelope ~subsystem ~elapsed_ms ~launches fields =
    Json.Obj
      (str "subsystem" subsystem
      :: float "elapsed_ms" elapsed_ms
      :: int "launches" launches
      :: fields)
end
