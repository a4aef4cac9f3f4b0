type info = {
  base : int;
  extents : int array;
  elem_size : int;
}

type t = { tbl : (string, info) Hashtbl.t }

(* Scaled geometries (--scale) can push extent products past both the
   native int and the 32-bit packed-record address field, so every
   multiply and the running cursor are checked. The address-space cap is
   {!Chunk.max_addr}: any array byte a traced run may touch must pack
   into a record. *)
let checked_mul name a b =
  if a <> 0 && b > max_int / a then
    invalid_arg
      (Printf.sprintf "Layout.build: size of %s overflows (%d * %d)" name a b)
  else a * b

(* Array bases are aligned to 128 bytes, cache1's line size. *)
let align = 128

let build ~param decls =
  let tbl = Hashtbl.create 16 in
  let cursor = ref 0 in
  List.iter
    (fun (d : Decl.t) ->
      let extents =
        Array.of_list
          (List.map (fun e -> Expr.eval e param) d.Decl.extents)
      in
      Array.iter
        (fun n ->
          if n <= 0 then
            invalid_arg
              (Printf.sprintf "Layout.build: non-positive extent in %s"
                 d.Decl.name))
        extents;
      let elems =
        Array.fold_left (checked_mul d.Decl.name) 1 extents
      in
      let info = { base = !cursor; extents; elem_size = d.Decl.elem_size } in
      Hashtbl.replace tbl d.Decl.name info;
      let bytes = checked_mul d.Decl.name elems d.Decl.elem_size in
      let bytes = (bytes + align - 1) / align * align in
      if bytes < 0 || !cursor > Chunk.max_addr - bytes + 1 then
        invalid_arg
          (Printf.sprintf
             "Layout.build: %s at byte %d (+%d bytes) exceeds the %d-byte \
              traceable address space; reduce the size parameter or --scale"
             d.Decl.name !cursor bytes (Chunk.max_addr + 1));
      cursor := !cursor + bytes)
    decls;
  { tbl }

let info t name =
  match Hashtbl.find_opt t.tbl name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Layout: unknown array %s" name)

let flat_offset t name subs =
  let i = info t name in
  if Array.length subs <> Array.length i.extents then
    invalid_arg (Printf.sprintf "Layout: rank mismatch for %s" name);
  let off = ref 0 and stride = ref 1 in
  Array.iteri
    (fun k s ->
      if s < 1 || s > i.extents.(k) then
        invalid_arg
          (Printf.sprintf "Layout: %s subscript %d = %d out of [1,%d]" name
             (k + 1) s i.extents.(k));
      off := !off + ((s - 1) * !stride);
      stride := !stride * i.extents.(k))
    subs;
  !off

let address t name subs =
  let i = info t name in
  i.base + (flat_offset t name subs * i.elem_size)

let size_elements t name =
  Array.fold_left ( * ) 1 (info t name).extents

let elem_size t name = (info t name).elem_size
