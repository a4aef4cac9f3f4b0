(* Check that every library export has a caller, on the typed trees.

   Reads the .cmti of every lib/*/*.mli and the .cmt of every compiled
   implementation under the given build directories, and resolves each
   value reference (Texp_ident, and the operator of a let-op) through
   local module aliases to the compilation unit that defines it. Fails
   when a top-level `val` of a library interface:

   - is referenced from no other module, or
   - is referenced only from modules under test/ and its doc comment
     does not begin with "Test oracle:".

   The @check alias writes a .cmt for every module, executables' main
   modules included; perfbench builds only in the release profile. Run
   from the root of the checkout:

     dune build @check
     dune build --profile release --build-dir _perfbuild @perfbench/check
     dune exec ci/exports.exe -- _build/default _perfbuild/default

   A missing .cmt can only add "no caller" reports, never hide one. *)

open Typedtree

let rec files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.concat_map (fun n ->
           let p = Filename.concat dir n in
           if Sys.is_directory p then files p else [ p ])

(* The compilation unit a dotted path names: a wrapped library's alias
   module [Locality_x] followed by [Y] is the unit [Locality_x__Y]. *)
let unit_of units = function
  | lib :: m :: rest when Hashtbl.mem units (lib ^ "__" ^ m) ->
    Some (lib ^ "__" ^ m, rest)
  | u :: rest when Hashtbl.mem units u -> Some (u, rest)
  | _ -> None

(* Record every value reference of one implementation as (unit, name). *)
let references units cmt =
  let aliases = Hashtbl.create 16 and refs = ref [] in
  let rec strip me =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some p
    | Tmod_constraint (me, _, _, _) -> strip me
    | _ -> None
  in
  let alias id me = Option.iter (Hashtbl.replace aliases id) (strip me) in
  let rec segments = function
    | Path.Pident id when Ident.global id -> Some [ Ident.name id ]
    | Path.Pident id ->
      Option.bind (Hashtbl.find_opt aliases id) segments
    | Path.Pdot (p, s) -> Option.map (fun l -> l @ [ s ]) (segments p)
    | Path.Papply _ | Path.Pextra_ty _ -> None
  in
  let use p =
    match Option.bind (segments p) (unit_of units) with
    | Some (u, [ v ]) -> refs := (u, v) :: !refs
    | _ -> ()
  in
  let super = Tast_iterator.default_iterator in
  let it =
    {
      super with
      module_binding =
        (fun sub mb ->
          Option.iter (fun id -> alias id mb.mb_expr) mb.mb_id;
          super.module_binding sub mb);
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> use p
          | Texp_letmodule (Some id, _, _, me, _) -> alias id me
          | Texp_letop { let_; ands; _ } ->
            List.iter (fun b -> use b.bop_op_path) (let_ :: ands)
          | _ -> ());
          super.expr sub e);
    }
  in
  (match cmt.Cmt_format.cmt_annots with
  | Cmt_format.Implementation s -> it.structure it s
  | _ -> ());
  !refs

(* Whether one of the value's doc comments begins with "Test oracle:". *)
let is_oracle attrs =
  List.exists
    (fun (a : Parsetree.attribute) ->
      match (a.attr_name.txt, a.attr_payload) with
      | ( "ocaml.doc",
          PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                _;
              };
            ] ) ->
        String.starts_with ~prefix:"Test oracle:" (String.trim s)
      | _ -> false)
    attrs

let () =
  let cmts =
    List.tl (Array.to_list Sys.argv)
    |> List.concat_map files
    |> List.filter (fun p ->
           Filename.check_suffix p ".cmt" || Filename.check_suffix p ".cmti")
    |> List.map Cmt_format.read_cmt
  in
  let source c = Option.value ~default:"" c.Cmt_format.cmt_sourcefile in
  (* Exports, once per unit even when several build directories hold it. *)
  let units = Hashtbl.create 64 in
  List.iter
    (fun c ->
      match c.Cmt_format.cmt_annots with
      | Cmt_format.Interface sg
        when String.starts_with ~prefix:"lib/" (source c)
             && not (Hashtbl.mem units c.cmt_modname) ->
        let vals =
          List.filter_map
            (fun item ->
              match item.sig_desc with
              | Tsig_value vd -> Some (vd.val_name.txt, vd.val_attributes)
              | _ -> None)
            sg.sig_items
        in
        Hashtbl.replace units c.cmt_modname (source c, vals)
      | _ -> ())
    cmts;
  (* Callers of each (unit, value): whether any is outside the unit,
     and whether any of those is outside test/. *)
  let called = Hashtbl.create 1024 and outside_tests = Hashtbl.create 1024 in
  List.iter
    (fun c ->
      let test = String.starts_with ~prefix:"test/" (source c) in
      List.iter
        (fun ((u, _) as key) ->
          if u <> c.Cmt_format.cmt_modname then begin
            Hashtbl.replace called key ();
            if not test then Hashtbl.replace outside_tests key ()
          end)
        (references units c))
    cmts;
  let problems =
    Hashtbl.fold (fun u (src, vals) acc -> (src, u, vals) :: acc) units []
    |> List.sort compare
    |> List.concat_map (fun (src, u, vals) ->
           List.filter_map
             (fun (v, attrs) ->
               if not (Hashtbl.mem called (u, v)) then
                 Some (Printf.sprintf "%s: val %s has no caller" src v)
               else if
                 (not (Hashtbl.mem outside_tests (u, v))) && not (is_oracle attrs)
               then
                 Some
                   (Printf.sprintf
                      "%s: val %s is called only by tests and is not marked \
                       \"Test oracle:\""
                      src v)
               else None)
             vals)
  in
  List.iter print_endline problems;
  Printf.printf "exports: %d problem(s)\n" (List.length problems);
  exit (if problems = [] then 0 else 1)
