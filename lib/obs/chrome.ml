(* Chrome trace-event JSON (the "JSON Array Format" with a traceEvents
   wrapper object), loadable in chrome://tracing, Perfetto and speedscope.
   Spans become complete ("X") events, instants "i", counters "C".
   Timestamps are microseconds relative to the earliest event. All JSON
   is rendered through the shared {!Json} emitter. *)

let str = Json.str
let obj = Json.obj

let us_of_ns ~origin ns =
  Printf.sprintf "%.3f" (Int64.to_float (Int64.sub ns origin) /. 1e3)

let args_json ?(extra = []) ctx args =
  let kvs = List.map (fun (k, v) -> (k, str v)) args @ extra in
  let kvs = if ctx = "" then kvs else ("ctx", str ctx) :: kvs in
  obj kvs

let event_json ~origin (e : Event.t) =
  let common = [ ("pid", "0"); ("tid", string_of_int e.Event.dom) ] in
  match e.Event.payload with
  | Event.Span s ->
    Some
      (obj
         ([
            ("name", str s.name);
            ("ph", str "X");
            ("ts", us_of_ns ~origin s.begin_ns);
            ("dur", Printf.sprintf "%.3f" (Int64.to_float s.dur_ns /. 1e3));
          ]
         @ common
         @ [ ("args", args_json e.Event.ctx s.args) ]))
  | Event.Instant i ->
    Some
      (obj
         ([
            ("name", str i.name);
            ("ph", str "i");
            ("s", str "t");
            ("ts", us_of_ns ~origin e.Event.ts_ns);
          ]
         @ common
         @ [ ("args", args_json e.Event.ctx i.args) ]))
  | Event.Counter _ -> None (* rendered with running totals below *)
  | Event.Hist h ->
    Some
      (obj
         ([
            ("name", str h.name);
            ("ph", str "i");
            ("s", str "t");
            ("ts", us_of_ns ~origin e.Event.ts_ns);
          ]
         @ common
         @ [ ("args", obj [ ("value", string_of_int h.value) ]) ]))
  | Event.Gauge g ->
    Some
      (obj
         [
           ("name", str g.name);
           ("ph", str "C");
           ("ts", us_of_ns ~origin e.Event.ts_ns);
           ("pid", "0");
           ("args", obj [ ("value", Printf.sprintf "%g" g.value) ]);
         ])
  | Event.Decision d ->
    Some
      (obj
         ([
            ("name", str ("decision:" ^ Event.action_to_string d.action));
            ("ph", str "i");
            ("s", str "t");
            ("ts", us_of_ns ~origin e.Event.ts_ns);
          ]
         @ common
         @ [
             ( "args",
               args_json e.Event.ctx
                 ([
                    ("nest", d.nest);
                    ("reason", d.reason);
                    ("original", String.concat "," d.original_order);
                    ( "achieved",
                      String.concat ";"
                        (List.map (String.concat ",") d.achieved_orders) );
                    ("memory_order", String.concat "," d.memory_order);
                  ]
                 @ List.map
                     (fun (l, c) -> ("LoopCost(" ^ l ^ ")", c))
                     d.costs) );
           ]))

let counter_json ~origin totals (e : Event.t) =
  match e.Event.payload with
  | Event.Counter c ->
    let total =
      (match Hashtbl.find_opt totals c.name with Some t -> t | None -> 0)
      + c.delta
    in
    Hashtbl.replace totals c.name total;
    Some
      (obj
         [
           ("name", str c.name);
           ("ph", str "C");
           ("ts", us_of_ns ~origin e.Event.ts_ns);
           ("pid", "0");
           ("args", obj [ ("value", string_of_int total) ]);
         ])
  | _ -> None

let to_string (events : Event.t list) =
  let origin =
    List.fold_left
      (fun acc (e : Event.t) ->
        let ts =
          match e.Event.payload with
          | Event.Span s -> s.begin_ns
          | _ -> e.Event.ts_ns
        in
        if Int64.compare ts acc < 0 then ts else acc)
      Int64.max_int events
  in
  let origin = if origin = Int64.max_int then 0L else origin in
  let meta =
    obj
      [
        ("name", str "process_name");
        ("ph", str "M");
        ("pid", "0");
        ("args", obj [ ("name", str "memoria") ]);
      ]
  in
  let totals = Hashtbl.create 8 in
  let rows =
    meta
    :: List.concat_map
         (fun e ->
           match (event_json ~origin e, counter_json ~origin totals e) with
           | Some j, _ -> [ j ]
           | None, Some j -> [ j ]
           | None, None -> [])
         events
  in
  Printf.sprintf "{\"schema_version\":%d,\"traceEvents\":[\n%s\n],\"displayTimeUnit\":\"ms\"}\n"
    Json.schema_version
    (String.concat ",\n" rows)

let write ~path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string events))
