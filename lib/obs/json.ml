(* The repository's one JSON value type, with its one parser and its one
   printer.  Every document the repo writes (metrics envelopes, chrome
   traces, the tuning database, checkpoint headers, BENCH files) is built
   as a [t] and printed by [to_string]; every document it reads goes
   through [parse] and the field accessors.  The repository deliberately
   carries no JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Malformed

let parse s =
  let n = String.length s in
  let i = ref 0 in
  let peek () = if !i < n then s.[!i] else raise Malformed in
  let skip_ws () =
    while !i < n && (match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr i
    done
  in
  let expect c = if !i < n && s.[!i] = c then incr i else raise Malformed in
  let literal lit v =
    let l = String.length lit in
    if !i + l <= n && String.equal (String.sub s !i l) lit then (
      i := !i + l;
      v)
    else raise Malformed
  in
  (* [\uXXXX] escapes, the cursor on the [u]: a UTF-16 surrogate pair
     spells one code point above the BMP; a lone surrogate is malformed *)
  let hex4 () =
    if !i + 4 >= n then raise Malformed;
    let digit = function
      | '0' .. '9' as c -> Char.code c - 48
      | 'a' .. 'f' as c -> Char.code c - 87
      | 'A' .. 'F' as c -> Char.code c - 55
      | _ -> raise Malformed
    in
    let v = ref 0 in
    for k = 1 to 4 do
      v := (!v lsl 4) lor digit s.[!i + k]
    done;
    i := !i + 4;
    !v
  in
  let parse_code_point () =
    let hi = hex4 () in
    if hi land 0xFC00 = 0xDC00 then raise Malformed;
    if hi land 0xFC00 <> 0xD800 then Uchar.of_int hi
    else if !i + 2 < n && s.[!i + 1] = '\\' && s.[!i + 2] = 'u' then begin
      i := !i + 2;
      let lo = hex4 () in
      if lo land 0xFC00 <> 0xDC00 then raise Malformed;
      Uchar.of_int (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
    end
    else raise Malformed
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then raise Malformed
      else
        match s.[!i] with
        | '"' -> incr i
        | '\\' ->
            incr i;
            (match peek () with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' -> Buffer.add_utf_8_uchar b (parse_code_point ())
            | _ -> raise Malformed);
            incr i;
            go ()
        | c ->
            Buffer.add_char b c;
            incr i;
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !i in
    while
      !i < n
      && match s.[!i] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr i
    done;
    match float_of_string_opt (String.sub s start (!i - start)) with
    | Some f -> f
    | None -> raise Malformed
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> Str (parse_string ())
    | '{' ->
        incr i;
        skip_ws ();
        if peek () = '}' then (
          incr i;
          Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr i;
                members ((k, v) :: acc)
            | '}' ->
                incr i;
                Obj (List.rev ((k, v) :: acc))
            | _ -> raise Malformed
          in
          members []
    | '[' ->
        incr i;
        skip_ws ();
        if peek () = ']' then (
          incr i;
          Arr [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr i;
                elems (v :: acc)
            | ']' ->
                incr i;
                Arr (List.rev (v :: acc))
            | _ -> raise Malformed
          in
          elems []
    | 't' -> Bool (literal "true" true)
    | 'f' -> Bool (literal "false" false)
    | 'n' -> literal "null" Null
    | _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !i <> n then raise Malformed;
  v

(* --- printer ----------------------------------------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* %.15g names every double a literal of at most 15 significant digits
   reads back as, without padding; 17 digits always round-trip. *)
let shortest f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s
  else
    let s = Printf.sprintf "%.16g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let int n = Num (float_of_int n)

let to_string v =
  let b = Buffer.create 256 in
  let add = Buffer.add_string b in
  let str s = add "\""; add (escape s); add "\"" in
  let seq op cl f l =
    add op;
    List.iteri (fun i x -> if i > 0 then add ","; f x) l;
    add cl
  in
  let rec go = function
    | Null -> add "null"
    | Bool x -> add (string_of_bool x)
    (* JSON has no NaN or infinity: they travel as strings, so the
       document stays valid and a reader expecting a number fails loudly *)
    | Num f when Float.is_nan f -> str "NaN"
    | Num f when Float.is_finite f -> add (shortest f)
    | Num f -> str (if f > 0.0 then "Infinity" else "-Infinity")
    | Str s -> str s
    | Arr l -> seq "[" "]" go l
    | Obj l -> seq "{" "}" (fun (k, x) -> str k; add ":"; go x) l
  in
  go v;
  Buffer.contents b

(* --- field accessors ---------------------------------------------------- *)

let member o name = match o with Obj fields -> List.assoc_opt name fields | _ -> None

let bool_field o name d =
  match member o name with Some (Bool b) -> b | Some _ -> raise Malformed | None -> d

let num_field o name d =
  match member o name with Some (Num f) -> f | Some _ -> raise Malformed | None -> d

let int_field o name d = int_of_float (num_field o name (float_of_int d))

let str_field o name =
  match member o name with Some (Str s) -> s | _ -> raise Malformed

let str_field_opt o name =
  match member o name with Some (Str s) -> Some s | Some Null | None -> None | Some _ -> raise Malformed

let int_array_field o name =
  match member o name with
  | Some (Arr l) ->
      Array.of_list (List.map (function Num f -> int_of_float f | _ -> raise Malformed) l)
  | _ -> raise Malformed

(* --- atomic file IO ----------------------------------------------------- *)

(* Durable-write helper shared by every on-disk format: the payload lands
   in a sibling temporary first and reaches [path] only through rename, so
   a crash mid-write leaves either the old file or the complete new one —
   never a truncated hybrid.  The temporary embeds the writer's pid so two
   processes saving concurrently cannot interleave halves of one temp. *)
let write_atomic path data =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  (try
     output_string oc data;
     flush oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s
