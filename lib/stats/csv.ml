module S = Locality_suite

(* The experiment tables all format floats to a fixed precision: four
   places for ratios and hit rates, six for simulated seconds. *)
let float4 x = Printf.sprintf "%.4f" x
let float6 x = Printf.sprintf "%.6f" x

let escape field =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') field then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' field) ^ "\""
  else field

let of_rows header rows =
  let line cells = String.concat "," (List.map escape cells) in
  String.concat "\n" (line header :: List.map line rows) ^ "\n"

let table2 rows =
  of_rows
    [
      "program"; "group"; "lines"; "loops"; "nests"; "orig"; "perm"; "fail";
      "inner_orig"; "inner_perm"; "inner_fail"; "fusion_candidates";
      "fusions"; "dist"; "dist_results"; "ratio_final"; "ratio_ideal";
    ]
    (List.map
       (fun (r : Table2.row) ->
         [
           r.Table2.entry.S.Programs.name;
           r.Table2.entry.S.Programs.group;
           string_of_int r.Table2.entry.S.Programs.lines;
           string_of_int r.Table2.loops;
           string_of_int r.Table2.nests;
           string_of_int r.Table2.orig;
           string_of_int r.Table2.perm;
           string_of_int r.Table2.fail;
           string_of_int r.Table2.inner_orig;
           string_of_int r.Table2.inner_perm;
           string_of_int r.Table2.inner_fail;
           string_of_int r.Table2.fusion_candidates;
           string_of_int r.Table2.fusions;
           string_of_int r.Table2.dist;
           string_of_int r.Table2.dist_results;
           float4 r.Table2.ratio_final;
           float4 r.Table2.ratio_ideal;
         ])
       rows)

let table3 rows =
  of_rows
    [ "program"; "seconds_orig"; "seconds_final"; "speedup_cache1"; "speedup_cache2" ]
    (List.map
       (fun (r : Perf.perf_row) ->
         [
           r.Perf.name;
           float6 r.Perf.seconds_orig;
           float6 r.Perf.seconds_final;
           float4 r.Perf.speedup;
           float4 r.Perf.speedup2;
         ])
       rows)

let table4 rows =
  of_rows
    [
      "program"; "opt1_orig"; "opt1_final"; "opt2_orig"; "opt2_final";
      "whole1_orig"; "whole1_final"; "whole2_orig"; "whole2_final";
    ]
    (List.map
       (fun (r : Perf.hit_row) ->
         [
           r.Perf.name;
           float4 r.Perf.opt1_orig;
           float4 r.Perf.opt1_final;
           float4 r.Perf.opt2_orig;
           float4 r.Perf.opt2_final;
           float4 r.Perf.whole1_orig;
           float4 r.Perf.whole1_final;
           float4 r.Perf.whole2_orig;
           float4 r.Perf.whole2_final;
         ])
       rows)

let write ~dir name contents =
  let path = Filename.concat dir name in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let write_all ?settings ~dir rows =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  write ~dir "table2.csv" (table2 rows);
  write ~dir "table3.csv" (table3 (Perf.table3_rows ?settings ()));
  write ~dir "table4.csv" (table4 (Perf.table4_rows ?settings rows))
