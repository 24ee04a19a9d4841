(* Classic Hashtbl + doubly-linked recency list: O(1) find/add/evict.
   [head] is most recent, [tail] least recent. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  cap : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: capacity must be >= 0";
  {
    cap = capacity;
    table = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
  }

let unlink c node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> c.head <- node.next);
  (match node.next with
  | Some nx -> nx.prev <- node.prev
  | None -> c.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front c node =
  node.next <- c.head;
  (match c.head with Some h -> h.prev <- Some node | None -> c.tail <- Some node);
  c.head <- Some node

let find c key =
  match Hashtbl.find_opt c.table key with
  | Some node ->
      unlink c node;
      push_front c node;
      Some node.value
  | None -> None

let evict_lru c =
  match c.tail with
  | None -> ()
  | Some node ->
      unlink c node;
      Hashtbl.remove c.table node.key

let add c key v =
  if c.cap > 0 then
    match Hashtbl.find_opt c.table key with
    | Some node ->
        node.value <- v;
        unlink c node;
        push_front c node
    | None ->
        let node = { key; value = v; prev = None; next = None } in
        Hashtbl.add c.table key node;
        push_front c node;
        if Hashtbl.length c.table > c.cap then evict_lru c

let to_list c =
  let rec walk acc = function
    | None -> List.rev acc
    | Some node -> walk ((node.key, node.value) :: acc) node.next
  in
  walk [] c.head

let mem c key = Hashtbl.mem c.table key
let length c = Hashtbl.length c.table
