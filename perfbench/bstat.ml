(* Summary statistics, failure accounting and JSON rendering for the
   benchmark's own measurements. Nothing here calls the program under
   test. *)

(* A tail percentile is only reported when this many samples lie
   beyond it; fewer make the tail a handful of outliers. *)
let min_beyond = 10

let samples_beyond p n = n * (100 - p) / 100

(* [percentile p xs] is the [p]-th percentile (0 < p < 100) of [xs] by
   linear interpolation between closest ranks, or [Error] when fewer
   than [min_beyond] samples lie beyond it. *)
let percentile p xs =
  if p <= 0 || p >= 100 then invalid_arg "Bstat.percentile: p outside (0, 100)";
  let n = Array.length xs in
  if samples_beyond p n < min_beyond then
    Error
      (Printf.sprintf "p%d needs %d samples beyond it; %d samples leave %d" p
         min_beyond n (samples_beyond p n))
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    let r = float_of_int p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    Ok (a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo))))
  end

let percentile_exn p xs =
  match percentile p xs with Ok v -> v | Error msg -> failwith msg

let mean xs =
  if xs = [||] then 0.0
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let geomean xs =
  if xs = [] then invalid_arg "Bstat.geomean: empty";
  exp
    (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
    /. float_of_int (List.length xs))

(* Median of a small odd-or-even sample (set-up repetitions). *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Bstat.median: empty"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ---------------------------------------------- failure accounting --- *)

type outcome = Ok_op | Failed of string

(* Attempted and failed operations, with failures tallied by kind
   (a typed "error", "timeout", "overloaded", or "mismatch" for an
   output that disagrees with the reference). *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable kinds : (string * int) list;
}

let tally () = { attempted = 0; failed = 0; kinds = [] }

let record t = function
  | Ok_op -> t.attempted <- t.attempted + 1
  | Failed kind ->
    t.attempted <- t.attempted + 1;
    t.failed <- t.failed + 1;
    let n = Option.value ~default:0 (List.assoc_opt kind t.kinds) in
    t.kinds <- (kind, n + 1) :: List.remove_assoc kind t.kinds

(* A correctness check that runs after the operation was counted: turn
   one success into a failure without attempting anything new. *)
let demote t kind =
  record t (Failed kind);
  t.attempted <- t.attempted - 1

let fail_ratio t =
  if t.attempted = 0 then 0.0
  else float_of_int t.failed /. float_of_int t.attempted

let mismatches t = Option.value ~default:0 (List.assoc_opt "mismatch" t.kinds)

(* ------------------------------------------------------------ JSON --- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Full precision: the figures are measurements, not display values. *)
let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

type metric = { name : string; value : float; unit_ : string }

let result_line ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun { name; value; unit_ } ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
             (json_float value) (json_string unit_))
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed m

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> failwith (path ^ ": no VmHWM line")
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      scan ())

let now = Unix.gettimeofday
