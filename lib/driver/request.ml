(* The serializable mirror of Driver.config — see request.mli. *)

module Cache = Locality_cachesim.Cache
module Machine = Locality_cachesim.Machine
module Measure = Locality_interp.Measure
module Store = Locality_store.Store
module Jsonin = Locality_telemetry.Jsonin
module Json = Locality_obs.Json

type source =
  | Kernel of string
  | Suite of string
  | File of string
  | Text of { name : string; text : string }

type transform =
  | Keep
  | Compound of { try_reversal : bool option; interference_limit : int option }

type machine = Named of string | Custom of Cache.config

type store_choice = Ambient | No_store | Root of string

type tune_spec = {
  t_top_k : int option;
  t_tiles : int list option;
  t_unrolls : int list option;
  t_max_candidates : int option;
}

type t = {
  id : string;
  source : source;
  n : int option;
  scale : int;
  cls : int;
  transform : transform;
  machines : machine list;
  params : (string * int) list;
  replay : Measure.replay_mode option;
  sample_rate : float option;
  use_labels : bool;
  store : store_choice;
  timeout_ms : int option;
  emit_program : bool;
  tune : tune_spec option;
}

let make ?(id = "") ?n ?(scale = 1) ?(cls = 4)
    ?(transform = Compound { try_reversal = None; interference_limit = None })
    ?(machines = []) ?(params = []) ?replay ?sample_rate ?(use_labels = false)
    ?(store = Ambient) ?timeout_ms ?(emit_program = false) ?tune source =
  { id; source; n; scale; cls; transform; machines; params; replay;
    sample_rate; use_labels; store; timeout_ms; emit_program; tune }

let named_machines =
  [ ("cache1", Machine.cache1); ("cache2", Machine.cache2) ]

let machine_of_config c =
  match List.find_opt (fun (_, preset) -> preset = c) named_machines with
  | Some (name, _) -> Named name
  | None -> Custom c

(* -------------------------------------------------------- writing --- *)

let jbool b = if b then "true" else "false"
let jnull = "null"
let jfloat v = Printf.sprintf "%.17g" v
let jopt f = function None -> jnull | Some v -> f v

let source_json = function
  | Kernel name -> Json.obj [ ("kind", Json.str "kernel"); ("name", Json.str name) ]
  | Suite name -> Json.obj [ ("kind", Json.str "suite"); ("name", Json.str name) ]
  | File path -> Json.obj [ ("kind", Json.str "file"); ("path", Json.str path) ]
  | Text { name; text } ->
    Json.obj
      [ ("kind", Json.str "text"); ("name", Json.str name);
        ("text", Json.str text) ]

let transform_json = function
  | Keep -> Json.obj [ ("kind", Json.str "keep") ]
  | Compound { try_reversal; interference_limit } ->
    Json.obj
      [
        ("kind", Json.str "compound");
        ("try_reversal", jopt jbool try_reversal);
        ("interference_limit", jopt Json.int interference_limit);
      ]

let machine_json = function
  | Named name -> Json.str name
  | Custom (c : Cache.config) ->
    Json.obj
      [
        ("name", Json.str c.Cache.name);
        ("size_bytes", Json.int c.Cache.size_bytes);
        ("assoc", Json.int c.Cache.assoc);
        ("line_bytes", Json.int c.Cache.line_bytes);
      ]

let store_json = function
  | Ambient -> Json.str "ambient"
  | No_store -> Json.str "none"
  | Root p -> Json.obj [ ("root", Json.str p) ]

let tune_json (s : tune_spec) =
  let jints l = Json.list (List.map Json.int l) in
  Json.obj
    [
      ("top_k", jopt Json.int s.t_top_k);
      ("tiles", jopt jints s.t_tiles);
      ("unrolls", jopt jints s.t_unrolls);
      ("max_candidates", jopt Json.int s.t_max_candidates);
    ]

let to_json r =
  Json.versioned
    [
      ("id", Json.str r.id);
      ("source", source_json r.source);
      ("n", jopt Json.int r.n);
      ("scale", Json.int r.scale);
      ("cls", Json.int r.cls);
      ("transform", transform_json r.transform);
      ("machines", Json.list (List.map machine_json r.machines));
      ( "params",
        Json.obj (List.map (fun (k, v) -> (k, Json.int v)) r.params) );
      ("replay", jopt (fun m -> Json.str (Measure.mode_to_string m)) r.replay);
      ("sample_rate", jopt jfloat r.sample_rate);
      ("use_labels", jbool r.use_labels);
      ("store", store_json r.store);
      ("timeout_ms", jopt Json.int r.timeout_ms);
      ("emit_program", jbool r.emit_program);
      ("tune", jopt tune_json r.tune);
    ]

let fingerprint r =
  to_json { r with id = ""; timeout_ms = None; emit_program = false }

(* -------------------------------------------------------- reading --- *)

exception Reject of string

let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt

(* Positions come from the keyed parse: first occurrence of the key in
   document order — exact for a well-formed request (field names are
   unique per object), and still inside the document for pathological
   key reuse across nesting levels. *)
let pos_of src keys k =
  match List.assoc_opt k keys with
  | Some off ->
    let line, col = Jsonin.line_col src off in
    Printf.sprintf "%d:%d" line col
  | None -> "request"

let check_fields ~src ~keys ~ctx allowed fields =
  List.iter
    (fun (k, _) ->
      if not (List.mem k allowed) then
        reject "%s: unknown field %S in %s" (pos_of src keys k) k ctx)
    fields

let non_null fields k =
  match List.assoc_opt k fields with
  | None | Some Jsonin.Null -> None
  | Some v -> Some v

let str_field ~src ~keys fields k =
  Option.map
    (function
      | Jsonin.Str s -> s
      | _ -> reject "%s: field %S: expected a string" (pos_of src keys k) k)
    (non_null fields k)

let int_field ~src ~keys fields k =
  Option.map
    (fun v ->
      match Jsonin.to_int_opt v with
      | Some i -> i
      | None -> reject "%s: field %S: expected an integer" (pos_of src keys k) k)
    (non_null fields k)

let bool_field ~src ~keys fields k =
  Option.map
    (function
      | Jsonin.Bool b -> b
      | _ -> reject "%s: field %S: expected a boolean" (pos_of src keys k) k)
    (non_null fields k)

let float_field ~src ~keys fields k =
  Option.map
    (fun v ->
      match Jsonin.to_float_opt v with
      | Some f -> f
      | None -> reject "%s: field %S: expected a number" (pos_of src keys k) k)
    (non_null fields k)

let obj_of ~src ~keys v ~what =
  match Jsonin.obj_fields v with
  | Some fields -> fields
  | None ->
    ignore keys;
    ignore src;
    reject "request: %s: expected a JSON object" what

let decode_source ~src ~keys v =
  let fields = obj_of ~src ~keys v ~what:"source" in
  let str k = str_field ~src ~keys fields k in
  let require k =
    match str k with
    | Some s -> s
    | None -> reject "%s: source is missing field %S" (pos_of src keys "source") k
  in
  match str "kind" with
  | None -> reject "%s: source is missing field \"kind\"" (pos_of src keys "source")
  | Some kind -> (
    let allowed =
      match kind with
      | "kernel" | "suite" -> [ "kind"; "name" ]
      | "file" -> [ "kind"; "path" ]
      | "text" -> [ "kind"; "name"; "text" ]
      | other ->
        reject "%s: unknown source kind %S (kernel|suite|file|text)"
          (pos_of src keys "kind") other
    in
    check_fields ~src ~keys ~ctx:"source" allowed fields;
    match kind with
    | "kernel" -> Kernel (require "name")
    | "suite" -> Suite (require "name")
    | "file" -> File (require "path")
    | _ -> Text { name = require "name"; text = require "text" })

let decode_transform ~src ~keys v =
  match v with
  | Jsonin.Str "keep" -> Keep
  | Jsonin.Str "compound" ->
    Compound { try_reversal = None; interference_limit = None }
  | Jsonin.Str other ->
    reject "%s: unknown transform %S (keep|compound)"
      (pos_of src keys "transform") other
  | v ->
    let fields = obj_of ~src ~keys v ~what:"transform" in
    check_fields ~src ~keys ~ctx:"transform"
      [ "kind"; "try_reversal"; "interference_limit" ]
      fields;
    (match str_field ~src ~keys fields "kind" with
    | Some "keep" -> Keep
    | Some "compound" | None ->
      Compound
        {
          try_reversal = bool_field ~src ~keys fields "try_reversal";
          interference_limit = int_field ~src ~keys fields "interference_limit";
        }
    | Some other ->
      reject "%s: unknown transform kind %S (keep|compound)"
        (pos_of src keys "kind") other)

let decode_machine ~src ~keys v =
  match v with
  | Jsonin.Str name -> Named name
  | v ->
    let fields = obj_of ~src ~keys v ~what:"machine" in
    check_fields ~src ~keys ~ctx:"machine"
      [ "name"; "size_bytes"; "assoc"; "line_bytes" ]
      fields;
    let int k =
      match int_field ~src ~keys fields k with
      | Some i -> i
      | None -> reject "request: machine is missing field %S" k
    in
    Custom
      {
        Cache.name =
          Option.value (str_field ~src ~keys fields "name") ~default:"custom";
        size_bytes = int "size_bytes";
        assoc = int "assoc";
        line_bytes = int "line_bytes";
      }

let decode_store ~src ~keys v =
  match v with
  | Jsonin.Str "ambient" -> Ambient
  | Jsonin.Str "none" -> No_store
  | Jsonin.Str other ->
    reject "%s: unknown store %S (ambient|none|{\"root\": DIR})"
      (pos_of src keys "store") other
  | v -> (
    let fields = obj_of ~src ~keys v ~what:"store" in
    check_fields ~src ~keys ~ctx:"store" [ "root" ] fields;
    match str_field ~src ~keys fields "root" with
    | Some p -> Root p
    | None -> reject "request: store is missing field \"root\"")

let decode_params ~src ~keys v =
  let fields = obj_of ~src ~keys v ~what:"params" in
  List.map
    (fun (k, v) ->
      match Jsonin.to_int_opt v with
      | Some i -> (k, i)
      | None ->
        reject "%s: parameter %S: expected an integer" (pos_of src keys k) k)
    fields

(* The tune spec's range rules, for the decoder and for [to_config] (the
   path the CLI's flags take). Fields are checked in the order the
   decoder has always reported them. *)
let tune_spec_error (s : tune_spec) =
  let count = function
    | Some i when i < 1 -> Some "must be >= 1"
    | _ -> None
  in
  let band = function
    | Some [] -> Some "expected a non-empty array"
    | Some l when List.exists (fun i -> i < 1) l ->
      Some "expected positive integers"
    | _ -> None
  in
  List.find_map
    (fun (field, problem) -> Option.map (fun m -> (field, m)) problem)
    [
      ("max_candidates", count s.t_max_candidates);
      ("unrolls", band s.t_unrolls); ("tiles", band s.t_tiles);
      ("top_k", count s.t_top_k);
    ]

let decode_tune ~src ~keys v =
  let fields = obj_of ~src ~keys v ~what:"tune" in
  check_fields ~src ~keys ~ctx:"tune"
    [ "top_k"; "tiles"; "unrolls"; "max_candidates" ]
    fields;
  let int_list k =
    Option.map
      (function
        | Jsonin.List items ->
          List.map
            (fun v ->
              match Jsonin.to_int_opt v with
              | Some i -> i
              | None ->
                reject "%s: field %S: expected positive integers"
                  (pos_of src keys k) k)
            items
        | _ ->
          reject "%s: field %S: expected an array of integers"
            (pos_of src keys k) k)
      (non_null fields k)
  in
  (* Each field's range is checked as soon as it is decoded, so a
     request with several bad fields names the one it always named. *)
  let checked spec =
    Option.iter
      (fun (k, m) -> reject "%s: field %S: %s" (pos_of src keys k) k m)
      (tune_spec_error spec);
    spec
  in
  let s =
    checked
      { t_top_k = None; t_tiles = None; t_unrolls = None;
        t_max_candidates = int_field ~src ~keys fields "max_candidates" }
  in
  let s = checked { s with t_unrolls = int_list "unrolls" } in
  let s = checked { s with t_tiles = int_list "tiles" } in
  checked { s with t_top_k = int_field ~src ~keys fields "top_k" }

let allowed_fields =
  [
    "schema_version"; "id"; "source"; "n"; "scale"; "cls"; "transform";
    "machines"; "params"; "replay"; "sample_rate"; "use_labels"; "store";
    "timeout_ms"; "emit_program"; "tune";
  ]

let decode src keys json =
  let fields =
    match Jsonin.obj_fields json with
    | Some fields -> fields
    | None -> reject "request: expected a JSON object"
  in
  check_fields ~src ~keys ~ctx:"request" allowed_fields fields;
  (match int_field ~src ~keys fields "schema_version" with
  | Some v when v <> Json.schema_version ->
    reject "%s: unsupported schema_version %d (expected %d)"
      (pos_of src keys "schema_version") v Json.schema_version
  | _ -> ());
  let source =
    match non_null fields "source" with
    | Some v -> decode_source ~src ~keys v
    | None -> reject "request: missing field \"source\""
  in
  let replay =
    Option.map
      (fun s ->
        match Measure.mode_of_string s with
        | Some m -> m
        | None ->
          reject "%s: unknown replay mode %S (runs|sample|analytic)"
            (pos_of src keys "replay") s)
      (str_field ~src ~keys fields "replay")
  in
  let sample_rate =
    Option.map
      (fun r ->
        if r > 0.0 && r <= 1.0 then r
        else
          reject "%s: field \"sample_rate\": expected a rate in (0, 1]"
            (pos_of src keys "sample_rate"))
      (float_field ~src ~keys fields "sample_rate")
  in
  (* Range checks that need no pipeline context happen here, where the
     diagnostic can still point at the offending key. *)
  let positive name v =
    Option.iter
      (fun v ->
        if v < 1 then
          reject "%s: field %S: must be >= 1" (pos_of src keys name) name)
      v;
    v
  in
  {
    id = Option.value (str_field ~src ~keys fields "id") ~default:"";
    source;
    n = int_field ~src ~keys fields "n";
    scale =
      Option.value (positive "scale" (int_field ~src ~keys fields "scale"))
        ~default:1;
    cls =
      Option.value (positive "cls" (int_field ~src ~keys fields "cls"))
        ~default:4;
    transform =
      (match non_null fields "transform" with
      | Some v -> decode_transform ~src ~keys v
      | None -> Compound { try_reversal = None; interference_limit = None });
    machines =
      (match non_null fields "machines" with
      | Some (Jsonin.List items) -> List.map (decode_machine ~src ~keys) items
      | Some _ ->
        reject "%s: field \"machines\": expected an array"
          (pos_of src keys "machines")
      | None -> []);
    params =
      (match non_null fields "params" with
      | Some v -> decode_params ~src ~keys v
      | None -> []);
    replay;
    sample_rate;
    use_labels =
      Option.value (bool_field ~src ~keys fields "use_labels") ~default:false;
    store =
      (match non_null fields "store" with
      | Some v -> decode_store ~src ~keys v
      | None -> Ambient);
    timeout_ms =
      (let v = int_field ~src ~keys fields "timeout_ms" in
       Option.iter
         (fun ms ->
           if ms < 0 then
             reject "%s: field \"timeout_ms\": must be >= 0"
               (pos_of src keys "timeout_ms"))
         v;
       v);
    emit_program =
      Option.value (bool_field ~src ~keys fields "emit_program") ~default:false;
    tune = Option.map (decode_tune ~src ~keys) (non_null fields "tune");
  }

let of_json src =
  match Jsonin.parse_keyed src with
  | exception Jsonin.Parse_error m -> Error ("request: " ^ m)
  | json, keys -> ( try Ok (decode src keys json) with Reject m -> Error m)

(* ------------------------------------------------------ resolving --- *)

let is_pow2 n = n > 0 && n land (n - 1) = 0

let resolve_machine = function
  | Named name -> (
    match List.assoc_opt name named_machines with
    | Some c -> c
    | None ->
      reject "request: unknown machine %S (try: %s)" name
        (String.concat ", " (List.map fst named_machines)))
  | Custom (c : Cache.config) ->
    let sets_ok =
      c.Cache.assoc >= 1
      && is_pow2 c.Cache.line_bytes
      && c.Cache.size_bytes mod (c.Cache.line_bytes * c.Cache.assoc) = 0
      && is_pow2 (c.Cache.size_bytes / (c.Cache.line_bytes * c.Cache.assoc))
    in
    if not sets_ok then
      reject
        "request: machine %S: invalid geometry (need power-of-two line and \
         set count, assoc >= 1)"
        c.Cache.name;
    c

let to_config ?(settings = Settings.default ()) r =
  try
    if r.scale < 1 then reject "request: field \"scale\": must be >= 1";
    if r.cls < 1 then reject "request: field \"cls\": must be >= 1";
    Option.iter
      (fun (k, m) -> reject "request: field %S: %s" k m)
      (Option.bind r.tune tune_spec_error);
    let source =
      match r.source with
      | Kernel name -> Driver.Source_kernel name
      | Suite name -> Driver.Source_suite name
      | File path -> Driver.Source_file path
      | Text { name; text } -> Driver.Source_text { name; text }
    in
    let machines = List.map resolve_machine r.machines in
    let store =
      match r.store with
      | Ambient -> settings.Settings.store
      | No_store -> None
      | Root p -> (
        try Some (Store.open_root p)
        with Sys_error m -> reject "request: store root %s: %s" p m)
    in
    let transform =
      match r.transform with
      | Keep -> Driver.Keep
      | Compound { try_reversal; interference_limit } ->
        Driver.Compound { try_reversal; interference_limit }
    in
    Ok
      (Driver.config ?n:r.n ~scale:r.scale ~cls:r.cls ~transform ~machines
         ?params:(match r.params with [] -> None | l -> Some l)
         ~replay:(Option.value r.replay ~default:settings.Settings.replay)
         ~sample_rate:
           (Option.value r.sample_rate ~default:settings.Settings.sample_rate)
         ~use_labels:r.use_labels ~store source)
  with Reject m -> Error m
