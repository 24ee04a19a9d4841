(* Each rule fires on every [every]-th visit, counted atomically so
   concurrent handler threads and worker domains share one schedule. *)

type rule = { every : int; count : int Atomic.t }

let rule every = { every; count = Atomic.make 0 }

let fires = function
  | None -> false
  | Some r -> (Atomic.fetch_and_add r.count 1 + 1) mod r.every = 0

type t = {
  crash : rule option;
  slow : rule option;
  slow_s : float;
  corrupt : rule option;
  truncate : rule option;
  blackhole : rule option;
  torn_write : rule option;
}

let off =
  {
    crash = None;
    slow = None;
    slow_s = 0.;
    corrupt = None;
    truncate = None;
    blackhole = None;
    torn_write = None;
  }

let is_off t =
  t.crash = None && t.slow = None && t.corrupt = None && t.truncate = None
  && t.blackhole = None && t.torn_write = None

let create ?crash_every ?slow_every ?(slow_s = 0.05) ?corrupt_every
    ?truncate_every ?blackhole_every ?torn_write_every () =
  let period what = function
    | None -> None
    | Some n when n < 1 ->
        invalid_arg (Printf.sprintf "Faults.create: %s must be >= 1" what)
    | Some n -> Some (rule n)
  in
  if slow_s < 0. then invalid_arg "Faults.create: slow_s must be >= 0";
  {
    crash = period "crash_every" crash_every;
    slow = period "slow_every" slow_every;
    slow_s;
    corrupt = period "corrupt_every" corrupt_every;
    truncate = period "truncate_every" truncate_every;
    blackhole = period "blackhole_every" blackhole_every;
    torn_write = period "torn_write_every" torn_write_every;
  }

let of_spec s =
  let s = String.trim s in
  if s = "" || String.lowercase_ascii s = "off" then Ok off
  else
    let parse_item acc item =
      match acc with
      | Error _ as e -> e
      | Ok t -> (
          let bad () = Error (Printf.sprintf "bad fault item %S" item) in
          match String.split_on_char ':' (String.trim item) with
          | [ kind; arg ] -> (
              let period p =
                match int_of_string_opt (String.trim p) with
                | Some n when n >= 1 -> Some (rule n)
                | _ -> None
              in
              let set f = function Some r -> Ok (f r) | None -> bad () in
              match String.lowercase_ascii (String.trim kind) with
              | "crash" -> set (fun r -> { t with crash = Some r }) (period arg)
              | "slow" -> (
                  match String.split_on_char '@' arg with
                  | [ p ] -> set (fun r -> { t with slow = Some r }) (period p)
                  | [ p; ms ] -> (
                      match (period p, float_of_string_opt (String.trim ms)) with
                      | Some r, Some ms when ms >= 0. ->
                          Ok { t with slow = Some r; slow_s = ms /. 1000. }
                      | _ -> bad ())
                  | _ -> bad ())
              | "corrupt" ->
                  set (fun r -> { t with corrupt = Some r }) (period arg)
              | "truncate" ->
                  set (fun r -> { t with truncate = Some r }) (period arg)
              | "blackhole" | "partition" ->
                  set (fun r -> { t with blackhole = Some r }) (period arg)
              | "torn-write" ->
                  set (fun r -> { t with torn_write = Some r }) (period arg)
              | _ -> bad ())
          | _ -> bad ())
    in
    List.fold_left parse_item
      (Ok { off with slow_s = 0.05 })
      (String.split_on_char ',' s)

let spec t =
  if is_off t then "off"
  else
    let item name = function
      | None -> []
      | Some r -> [ Printf.sprintf "%s:%d" name r.every ]
    in
    let slow =
      match t.slow with
      | None -> []
      | Some r -> [ Printf.sprintf "slow:%d@%g" r.every (1000. *. t.slow_s) ]
    in
    String.concat ","
      (item "crash" t.crash @ slow @ item "corrupt" t.corrupt
      @ item "truncate" t.truncate
      @ item "blackhole" t.blackhole
      @ item "torn-write" t.torn_write)

type execute_fate = Run | Delay of float | Crash
type reply_fate = Deliver | Corrupt | Truncate | Blackhole
type append_fate = Write | Torn

let on_execute t =
  if is_off t then Run
  else if fires t.crash then Crash
  else if fires t.slow then Delay t.slow_s
  else Run

let on_reply t =
  if is_off t then Deliver
  else if fires t.truncate then Truncate
  else if fires t.corrupt then Corrupt
  else if fires t.blackhole then Blackhole
  else Deliver

let on_append t = if fires t.torn_write then Torn else Write
