type 'a t = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable value : 'a option;
}

let create () =
  { mutex = Mutex.create (); cond = Condition.create (); value = None }

let fill cell v =
  Mutex.lock cell.mutex;
  (match cell.value with
  | Some _ ->
      Mutex.unlock cell.mutex;
      invalid_arg "Ivar.fill: already filled"
  | None ->
      cell.value <- Some v;
      Condition.broadcast cell.cond;
      Mutex.unlock cell.mutex)

let read cell =
  Mutex.lock cell.mutex;
  let rec wait () =
    match cell.value with
    | Some v ->
        Mutex.unlock cell.mutex;
        v
    | None ->
        Condition.wait cell.cond cell.mutex;
        wait ()
  in
  wait ()

let peek cell =
  Mutex.lock cell.mutex;
  let v = cell.value in
  Mutex.unlock cell.mutex;
  v

let wait start =
  let cell = create () in
  start (fun v -> try fill cell v with Invalid_argument _ -> ());
  read cell
