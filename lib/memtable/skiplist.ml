module Ikey = Wip_util.Ikey

let max_height = 12

type node = {
  ikey : Ikey.t option; (* None only for the head sentinel *)
  value : string;
  next : node option array;
}

type t = {
  head : node;
  rng : Wip_util.Rng.t;
  mutable height : int;
  mutable count : int;
  mutable byte_size : int;
  mutable probes : int;
}

let create ?(seed = 0x5175L) () =
  {
    head = { ikey = None; value = ""; next = Array.make max_height None };
    rng = Wip_util.Rng.create ~seed;
    height = 1;
    count = 0;
    byte_size = 0;
    probes = 0;
  }

let random_height t =
  (* Branching factor 4: each extra level with probability 1/4. *)
  let rec loop h =
    if h < max_height && Wip_util.Rng.int t.rng 4 = 0 then loop (h + 1) else h
  in
  loop 1

(* [node_before t ikey prev] finds, at every level, the last node whose key
   is strictly before [ikey]; fills [prev] when provided. *)
let node_before t ikey prev =
  let rec descend node level =
    t.probes <- t.probes + 1;
    let advance =
      match node.next.(level) with
      | Some next_node -> (
        match next_node.ikey with
        | Some k when Ikey.compare k ikey < 0 -> Some next_node
        | _ -> None)
      | None -> None
    in
    match advance with
    | Some next_node -> descend next_node level
    | None ->
      (match prev with Some arr -> arr.(level) <- node | None -> ());
      if level = 0 then node else descend node (level - 1)
  in
  descend t.head (t.height - 1)

let add t ikey value =
  let prev = Array.make max_height t.head in
  ignore (node_before t ikey (Some prev));
  let h = random_height t in
  if h > t.height then begin
    for level = t.height to h - 1 do
      prev.(level) <- t.head
    done;
    t.height <- h
  end;
  let node = { ikey = Some ikey; value; next = Array.make h None } in
  for level = 0 to h - 1 do
    node.next.(level) <- prev.(level).next.(level);
    prev.(level).next.(level) <- Some node
  done;
  t.count <- t.count + 1;
  t.byte_size <-
    t.byte_size + String.length ikey.Ikey.user_key + String.length value + 16

let find t user_key ~snapshot =
  (* The newest visible version has the largest seq <= snapshot; in internal
     key order that is the first entry for [user_key] at or after
     (user_key, snapshot). *)
  let target = Ikey.make user_key ~seq:snapshot in
  let before = node_before t target None in
  let rec scan node =
    t.probes <- t.probes + 1;
    match node.next.(0) with
    | None -> None
    | Some next_node -> (
      match next_node.ikey with
      | None -> None
      | Some k ->
        if String.equal k.Ikey.user_key user_key then
          if Int64.compare k.Ikey.seq snapshot <= 0 then
            Some (k.Ikey.kind, next_node.value)
          else scan next_node
        else None)
  in
  scan before

let find_with_seq t user_key ~snapshot =
  let target = Ikey.make user_key ~seq:snapshot in
  let before = node_before t target None in
  let rec scan node =
    t.probes <- t.probes + 1;
    match node.next.(0) with
    | None -> None
    | Some next_node -> (
      match next_node.ikey with
      | None -> None
      | Some k ->
        if String.equal k.Ikey.user_key user_key then
          if Int64.compare k.Ikey.seq snapshot <= 0 then
            Some (k.Ikey.kind, next_node.value, k.Ikey.seq)
          else scan next_node
        else None)
  in
  scan before

let to_sorted_seq ?lo t =
  let rec from node () =
    match node.next.(0) with
    | None -> Seq.Nil
    | Some next_node -> (
      match next_node.ikey with
      | None -> Seq.Nil
      | Some k -> Seq.Cons ((k, next_node.value), from next_node))
  in
  match lo with
  | None -> from t.head
  | Some lo -> from (node_before t (Ikey.make lo ~seq:Ikey.max_seq) None)

let count t = t.count

let byte_size t = t.byte_size

let probes t = t.probes
