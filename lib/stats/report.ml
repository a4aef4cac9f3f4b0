type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render ~title ?note aligns header rows =
  let ncols = List.length header in
  let align_of i = match List.nth_opt aligns i with Some a -> a | None -> Right in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i < ncols then widths.(i) <- max widths.(i) (String.length cell))
        row)
    (header :: rows);
  let render_row row =
    String.concat "  "
      (List.mapi (fun i cell -> pad (align_of i) widths.(i) cell) row)
  in
  let sep =
    String.concat "  "
      (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("== " ^ title ^ " ==\n");
  (match note with
  | Some n -> Buffer.add_string buf (n ^ "\n")
  | None -> ());
  Buffer.add_string buf (render_row header ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun row -> Buffer.add_string buf (render_row row ^ "\n")) rows;
  Buffer.contents buf

let fmt_pct f = Printf.sprintf "%.2f" f

let histogram ~title ~buckets ~total =
  let buf = Buffer.create 512 in
  Buffer.add_string buf ("== " ^ title ^ " ==\n");
  let maxv = List.fold_left (fun m (_, v) -> max m v) 1 buckets in
  List.iter
    (fun (label, v) ->
      let bar = String.make (v * 40 / maxv) '#' in
      Buffer.add_string buf (Printf.sprintf "%-12s %3d |%s\n" label v bar))
    buckets;
  Buffer.add_string buf (Printf.sprintf "total: %d\n" total);
  Buffer.contents buf
