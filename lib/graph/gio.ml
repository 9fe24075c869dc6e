let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "n %d\n" (Graph.n g));
  Graph.fold_edges
    (fun _ u v cap () ->
      if cap = 1.0 then Buffer.add_string buf (Printf.sprintf "%d %d\n" u v)
      else Buffer.add_string buf (Printf.sprintf "%d %d %.17g\n" u v cap))
    g ();
  Buffer.contents buf

let of_string text =
  let lines = String.split_on_char '\n' text in
  let lines =
    List.filter
      (fun line ->
        let line = String.trim line in
        line <> "" && not (String.length line > 0 && line.[0] = '#'))
      (List.map String.trim lines)
  in
  match lines with
  | [] -> failwith "Gio.of_string: empty input"
  | header :: rest ->
      let n =
        match String.split_on_char ' ' header with
        | [ "n"; count ] -> (
            match int_of_string_opt count with
            | Some n when n > 0 -> n
            | _ -> failwith "Gio.of_string: bad vertex count")
        | _ -> failwith "Gio.of_string: expected 'n <count>' header"
      in
      let b = Graph.Builder.create n in
      List.iter
        (fun line ->
          let fields =
            List.filter (fun s -> s <> "") (String.split_on_char ' ' line)
          in
          match fields with
          | [ u; v ] -> (
              match (int_of_string_opt u, int_of_string_opt v) with
              | Some u, Some v -> ignore (Graph.Builder.add_edge b u v)
              | _ -> failwith "Gio.of_string: bad edge line")
          | [ u; v; cap ] -> (
              match (int_of_string_opt u, int_of_string_opt v, float_of_string_opt cap) with
              | Some u, Some v, Some cap -> ignore (Graph.Builder.add_edge ~cap b u v)
              | _ -> failwith "Gio.of_string: bad edge line")
          | _ -> failwith "Gio.of_string: bad edge line")
        rest;
      Graph.Builder.build b
