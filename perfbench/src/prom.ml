(* Prometheus text expositions as series → value tables, and the deltas
   the benchmark takes between two scrapes around a timed window. *)

type t = (string, float) Hashtbl.t

let parse text : t =
  let tbl = Hashtbl.create 128 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | None -> ()
        | Some i -> (
            let series = String.sub line 0 i in
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            match float_of_string_opt v with
            | Some f -> Hashtbl.replace tbl series f
            | None -> ()))
    (String.split_on_char '\n' text);
  tbl

let get (t : t) series = Option.value (Hashtbl.find_opt t series) ~default:0.

(* [delta before after series] — growth of a counter over the window. *)
let delta before after series = get after series -. get before series

(* Cumulative bucket counts of histogram [name] grown over the window,
   bound order, [+Inf] last. *)
let hist_delta before after name =
  let prefix = name ^ "_bucket{le=\"" in
  let pl = String.length prefix in
  Hashtbl.fold
    (fun series _ acc ->
      if String.length series > pl && String.sub series 0 pl = prefix then
        let le = String.sub series pl (String.length series - pl - 2) in
        let bound = if le = "+Inf" then infinity else float_of_string le in
        (bound, int_of_float (delta before after series)) :: acc
      else acc)
    after []
  |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
  |> Array.of_list

(* Mean of the observations a histogram gained over the window. *)
let hist_mean before after name =
  let n = delta before after (name ^ "_count") in
  if n <= 0. then 0. else delta before after (name ^ "_sum") /. n
