exception Unreadable of string
exception Corrupt of string

let unreadable fmt = Printf.ksprintf (fun msg -> raise (Unreadable msg)) fmt
let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

(* A failed open names the path already; a failed read ("Is a
   directory") does not. *)
let read path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg ->
    if String.starts_with ~prefix:(path ^ ": ") msg then raise (Unreadable msg)
    else unreadable "%s: %s" path msg

let readdir dir = try Sys.readdir dir with Sys_error msg -> raise (Unreadable msg)

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (err, _, _) ->
        unreadable "cannot create %s: %s" path (Unix.error_message err)
  end

let write path f =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  try
    let oc = open_out_bin tmp in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
        f oc;
        close_out oc);
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    match e with Sys_error msg -> unreadable "cannot write %s: %s" path msg | e -> raise e
