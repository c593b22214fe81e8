let mean = function
  | [] -> invalid_arg "Stats.mean: empty list"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> invalid_arg "Stats.geomean: empty list"
  | xs ->
      let log_sum =
        List.fold_left
          (fun acc x ->
            if x <= 0. then invalid_arg "Stats.geomean: non-positive value"
            else acc +. log x)
          0. xs
      in
      exp (log_sum /. float_of_int (List.length xs))

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty list"
  | x :: xs ->
      List.fold_left (fun (lo, hi) v -> (min lo v, max hi v)) (x, x) xs

let mean_finite xs =
  match List.filter Float.is_finite xs with [] -> nan | ys -> mean ys

let ratio a b = if b = 0. then nan else a /. b

let percent_reduction before after =
  if before = 0. then nan else 100. *. (before -. after) /. before
let clamp lo hi v = max lo (min hi v)

(* Peak resident set size from /proc/self/status (VmHWM), in kB.  Linux
   only; None where the proc file or the field is missing, truncated or
   unreadable mid-scan, so callers degrade to "n/a" instead of failing
   on other platforms (?path exists for the degradation tests). *)
let peak_rss_kb ?(path = "/proc/self/status") () =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let prefix = "VmHWM:" in
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | exception Sys_error _ -> None
        | line ->
            if String.length line > String.length prefix
               && String.sub line 0 (String.length prefix) = prefix
            then
              let rest =
                String.sub line (String.length prefix)
                  (String.length line - String.length prefix)
              in
              let digits =
                String.to_seq rest
                |> Seq.filter (fun c -> c >= '0' && c <= '9')
                |> String.of_seq
              in
              int_of_string_opt digits
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan
