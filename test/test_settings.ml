(* The environment resolver behind the memoria executable,
   on fake environment lists: lenient fallbacks for every variable, the
   core-count cap on jobs, and a store only for a non-empty root. *)

module Settings = Locality_driver.Settings
module Measure = Locality_interp.Measure
module Store = Locality_store.Store

let resolve ?(cores = 4) ?(open_store = fun _ -> None) env =
  Settings.of_env ~cores ~open_store env

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 0.0))

let test_jobs () =
  let jobs v = (resolve [ ("MEMORIA_JOBS", v) ]).Settings.jobs in
  check_int "0 ignored" 4 (jobs "0");
  check_int "abc ignored" 4 (jobs "abc");
  check_int "64 capped at the cores" 4 (jobs "64");
  check_int "2 taken" 2 (jobs " 2 ");
  check_int "unset: min 8 cores" 8
    (Settings.of_env ~cores:16 ~open_store:(fun _ -> None) []).Settings.jobs

let test_replay () =
  let replay v = (resolve [ ("MEMORIA_REPLAY", v) ]).Settings.replay in
  check_bool "bogus selects runs" true (replay "bogus" = Measure.Runs);
  check_bool "unset selects runs" true
    ((resolve []).Settings.replay = Measure.Runs);
  check_bool "sample" true (replay "sample" = Measure.Sampled);
  check_bool "retired per-access selects runs" true
    (replay "per-access" = Measure.Runs)

let test_sample_rate () =
  let rate v = (resolve [ ("MEMORIA_SAMPLE_RATE", v) ]).Settings.sample_rate in
  List.iter
    (fun v -> check_float (v ^ " falls back") 0.01 (rate v))
    [ "x"; "0"; "5" ];
  check_float "0.25 taken" 0.25 (rate "0.25");
  check_float "1 taken" 1.0 (rate "1")

let test_store () =
  let opened = ref [] in
  let open_store root =
    opened := root :: !opened;
    Some
      (Store.open_root (Filename.concat (Filename.get_temp_dir_name ()) root))
  in
  let s = Settings.of_env ~open_store [ ("MEMORIA_STORE", "") ] in
  check_bool "empty store path: no store" true (s.Settings.store = None);
  check_bool "empty store path: nothing opened" true (!opened = []);
  let root = Printf.sprintf "memoria-settings-test-%d" (Unix.getpid ()) in
  let s = Settings.of_env ~open_store [ ("MEMORIA_STORE", root) ] in
  check_bool "store opened" true (s.Settings.store <> None)

let test_environment () =
  check_bool "split at the first =" true
    (Settings.environment [| "A=1"; "B=x=y"; "junk"; "C=" |]
    = [ ("A", "1"); ("B", "x=y"); ("C", "") ])

let suite =
  [
    ("MEMORIA_JOBS: lenient, capped", `Quick, test_jobs);
    ("MEMORIA_REPLAY: unknown selects runs", `Quick, test_replay);
    ("MEMORIA_SAMPLE_RATE: unusable falls back", `Quick, test_sample_rate);
    ("MEMORIA_STORE: empty means none", `Quick, test_store);
    ("environment splitting", `Quick, test_environment);
  ]
