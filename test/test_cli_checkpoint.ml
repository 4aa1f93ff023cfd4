(* The checkpoint directory through the CLI: `fullsys --checkpoint-dir`
   creates the directory it is given, missing parents included, so a
   whole run is never lost to a failed final save. *)

let cli =
  Filename.concat Filename.parent_dir_name
    (Filename.concat "bin" "ptguard_cli.exe")

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun name -> remove_tree (Filename.concat path name))
      (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_nested_missing_dir () =
  let root = Filename.temp_file "ptg_cli_ckpt" "" in
  Sys.remove root;
  let dir = Filename.concat (Filename.concat root "a") "b" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists root then remove_tree root)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s fullsys --instrs 2000 --checkpoint-dir %s > %s 2> %s"
             cli (Filename.quote dir) Filename.null Filename.null)
      in
      Alcotest.(check int) "exit code" 0 code;
      Alcotest.(check bool)
        "a checkpoint file was saved" true
        (Sys.file_exists dir
        && Array.exists
             (fun name -> Filename.check_suffix name ".ptgs")
             (Sys.readdir dir)))

let suite =
  [
    Alcotest.test_case "fullsys creates a nested missing checkpoint dir" `Quick
      test_nested_missing_dir;
  ]
