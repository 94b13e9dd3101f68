(** Adaptive Radix Tree (Leis et al., ICDE 2013), the index structure DuckDB
    uses for primary keys and that the paper builds over materialized
    aggregates to support INSERT OR REPLACE upserts.

    Keys are arbitrary byte strings; internally every key is rewritten into
    a prefix-free form (0x00 escaped as 0x00 0xFF, terminated by 0x00 0x01,
    both order-preserving), so no stored key is a proper prefix of another
    and the classic ART invariants hold unconditionally.

    Node types: Node4 and Node16 keep a sorted key-byte array parallel to a
    child array; Node48 keeps a 256-entry byte->slot map; Node256 is a
    direct array. Inner nodes carry a compressed path ([prefix]).

    Besides point operations the module provides [of_sorted] (bulk build)
    and [merge] (structural union of two trees), the two primitives behind
    the paper's observation that "it is more efficient to build small
    indexes for each chunk and merge them". *)

type 'a node =
  | Leaf of 'a leaf
  | Inner of 'a inner

and 'a leaf = { key : string; mutable value : 'a }

and 'a inner = {
  mutable prefix : string;
  mutable kind : kind;
  mutable count : int;
  mutable keys : Bytes.t;
  mutable children : 'a node option array;
}

and kind = N4 | N16 | N48 | N256

type 'a t = { mutable root : 'a node option; mutable size : int }

let create () = { root = None; size = 0 }
let length t = t.size

(* --- prefix-free internal key encoding --- *)

let internal_key (raw : string) : string =
  let buf = Buffer.create (String.length raw + 2) in
  String.iter
    (fun c ->
       if c = '\x00' then begin
         Buffer.add_char buf '\x00';
         Buffer.add_char buf '\xff'
       end
       else Buffer.add_char buf c)
    raw;
  Buffer.add_char buf '\x00';
  Buffer.add_char buf '\x01';
  Buffer.contents buf

let external_key (ik : string) : string =
  let buf = Buffer.create (String.length ik) in
  let n = String.length ik - 2 in
  let i = ref 0 in
  while !i < n do
    if ik.[!i] = '\x00' && !i + 1 < n && ik.[!i + 1] = '\xff' then begin
      Buffer.add_char buf '\x00';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf ik.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* --- node constructors --- *)

let capacity = function N4 -> 4 | N16 -> 16 | N48 -> 48 | N256 -> 256

let make_inner ?(kind = N4) prefix =
  let keys =
    match kind with
    | N4 | N16 -> Bytes.make (capacity kind) '\x00'
    | N48 -> Bytes.make 256 '\xff'
    | N256 -> Bytes.empty
  in
  { prefix; kind; count = 0; keys; children = Array.make (match kind with N4 -> 4 | N16 -> 16 | N48 -> 48 | N256 -> 256) None }

(* --- uniform child accessors --- *)

let child_get (inn : 'a inner) (b : int) : 'a node option =
  match inn.kind with
  | N4 | N16 ->
    let rec scan i =
      if i >= inn.count then None
      else if Char.code (Bytes.get inn.keys i) = b then inn.children.(i)
      else scan (i + 1)
    in
    scan 0
  | N48 ->
    let slot = Char.code (Bytes.get inn.keys b) in
    if slot = 0xff then None else inn.children.(slot)
  | N256 -> inn.children.(b)

let grow (inn : 'a inner) =
  match inn.kind with
  | N4 | N16 ->
    let new_kind = if inn.kind = N4 then N16 else N48 in
    let fresh = make_inner ~kind:new_kind inn.prefix in
    if new_kind = N16 then begin
      Bytes.blit inn.keys 0 fresh.keys 0 inn.count;
      Array.blit inn.children 0 fresh.children 0 inn.count
    end
    else
      for i = 0 to inn.count - 1 do
        let b = Char.code (Bytes.get inn.keys i) in
        Bytes.set fresh.keys b (Char.chr i);
        fresh.children.(i) <- inn.children.(i)
      done;
    fresh.count <- inn.count;
    inn.kind <- fresh.kind;
    inn.keys <- fresh.keys;
    inn.children <- fresh.children
  | N48 ->
    let fresh = make_inner ~kind:N256 inn.prefix in
    for b = 0 to 255 do
      let slot = Char.code (Bytes.get inn.keys b) in
      if slot <> 0xff then fresh.children.(b) <- inn.children.(slot)
    done;
    fresh.count <- inn.count;
    inn.kind <- N256;
    inn.keys <- fresh.keys;
    inn.children <- fresh.children
  | N256 -> invalid_arg "Art.grow: Node256 cannot grow"

(** Insert or replace the child at byte [b]. *)
let rec child_set (inn : 'a inner) (b : int) (node : 'a node) : unit =
  match inn.kind with
  | N4 | N16 ->
    let rec find i =
      if i >= inn.count then None
      else if Char.code (Bytes.get inn.keys i) = b then Some i
      else find (i + 1)
    in
    (match find 0 with
     | Some i -> inn.children.(i) <- Some node
     | None ->
       if inn.count >= capacity inn.kind then begin
         grow inn;
         child_set inn b node
       end
       else begin
         (* keep key bytes sorted for ordered iteration *)
         let pos = ref inn.count in
         while !pos > 0 && Char.code (Bytes.get inn.keys (!pos - 1)) > b do
           Bytes.set inn.keys !pos (Bytes.get inn.keys (!pos - 1));
           inn.children.(!pos) <- inn.children.(!pos - 1);
           decr pos
         done;
         Bytes.set inn.keys !pos (Char.chr b);
         inn.children.(!pos) <- Some node;
         inn.count <- inn.count + 1
       end)
  | N48 ->
    let slot = Char.code (Bytes.get inn.keys b) in
    if slot <> 0xff then inn.children.(slot) <- Some node
    else if inn.count >= 48 then begin
      grow inn;
      child_set inn b node
    end
    else begin
      (* find a free slot; after removals holes may be anywhere *)
      let rec free i = if inn.children.(i) = None then i else free (i + 1) in
      let slot = free 0 in
      inn.children.(slot) <- Some node;
      Bytes.set inn.keys b (Char.chr slot);
      inn.count <- inn.count + 1
    end
  | N256 ->
    if inn.children.(b) = None then inn.count <- inn.count + 1;
    inn.children.(b) <- Some node

let child_remove (inn : 'a inner) (b : int) : unit =
  match inn.kind with
  | N4 | N16 ->
    let rec find i =
      if i >= inn.count then ()
      else if Char.code (Bytes.get inn.keys i) = b then begin
        for j = i to inn.count - 2 do
          Bytes.set inn.keys j (Bytes.get inn.keys (j + 1));
          inn.children.(j) <- inn.children.(j + 1)
        done;
        inn.children.(inn.count - 1) <- None;
        inn.count <- inn.count - 1
      end
      else find (i + 1)
    in
    find 0
  | N48 ->
    let slot = Char.code (Bytes.get inn.keys b) in
    if slot <> 0xff then begin
      inn.children.(slot) <- None;
      Bytes.set inn.keys b '\xff';
      inn.count <- inn.count - 1
    end
  | N256 ->
    if inn.children.(b) <> None then begin
      inn.children.(b) <- None;
      inn.count <- inn.count - 1
    end

(** Iterate children in ascending key-byte order. *)
let child_iter (inn : 'a inner) (f : int -> 'a node -> unit) : unit =
  match inn.kind with
  | N4 | N16 ->
    for i = 0 to inn.count - 1 do
      match inn.children.(i) with
      | Some c -> f (Char.code (Bytes.get inn.keys i)) c
      | None -> ()
    done
  | N48 ->
    for b = 0 to 255 do
      let slot = Char.code (Bytes.get inn.keys b) in
      if slot <> 0xff then
        match inn.children.(slot) with
        | Some c -> f b c
        | None -> ()
    done
  | N256 ->
    for b = 0 to 255 do
      match inn.children.(b) with
      | Some c -> f b c
      | None -> ()
    done

(** The single remaining child of a node with [count = 1]. *)
let only_child (inn : 'a inner) : int * 'a node =
  let found = ref None in
  child_iter inn (fun b c -> if !found = None then found := Some (b, c));
  match !found with
  | Some x -> x
  | None -> invalid_arg "Art.only_child: empty node"

(* --- core operations (on internal keys) --- *)

let common_prefix_len a ofs_a b ofs_b limit =
  let rec go i =
    if i >= limit then i
    else if a.[ofs_a + i] = b.[ofs_b + i] then go (i + 1)
    else i
  in
  go 0

(** Insert [key -> value]; [combine] resolves collisions with an existing
    binding (given old then new value). Returns [true] when a new key was
    added. *)
let rec insert_node (node : 'a node) (key : string) (depth : int)
    ~(combine : 'a -> 'a -> 'a) (value : 'a) : 'a node * bool =
  match node with
  | Leaf l ->
    if String.equal l.key key then begin
      l.value <- combine l.value value;
      (node, false)
    end
    else begin
      (* split: common part of both suffixes becomes the new node's prefix *)
      let limit =
        min (String.length l.key - depth) (String.length key - depth)
      in
      let c = common_prefix_len l.key depth key depth limit in
      let inn = make_inner (String.sub key depth c) in
      child_set inn (Char.code l.key.[depth + c]) (Leaf l);
      child_set inn (Char.code key.[depth + c]) (Leaf { key; value });
      (Inner inn, true)
    end
  | Inner inn ->
    let plen = String.length inn.prefix in
    let limit = min plen (String.length key - depth) in
    let c = common_prefix_len inn.prefix 0 key depth limit in
    if c < plen then begin
      (* prefix mismatch: split the compressed path at [c] *)
      let parent = make_inner (String.sub inn.prefix 0 c) in
      let old_byte = Char.code inn.prefix.[c] in
      inn.prefix <- String.sub inn.prefix (c + 1) (plen - c - 1);
      child_set parent old_byte (Inner inn);
      child_set parent (Char.code key.[depth + c]) (Leaf { key; value });
      (Inner parent, true)
    end
    else begin
      let d = depth + plen in
      let b = Char.code key.[d] in
      match child_get inn b with
      | None ->
        child_set inn b (Leaf { key; value });
        (node, true)
      | Some child ->
        let child', added = insert_node child key (d + 1) ~combine value in
        if child' != child then child_set inn b child';
        (node, added)
    end

let insert_with t ~combine (raw_key : string) (value : 'a) : unit =
  let key = internal_key raw_key in
  match t.root with
  | None ->
    t.root <- Some (Leaf { key; value });
    t.size <- 1
  | Some root ->
    let root', added = insert_node root key 0 ~combine value in
    t.root <- Some root';
    if added then t.size <- t.size + 1

let insert t raw_key value = insert_with t ~combine:(fun _ v -> v) raw_key value

let find t (raw_key : string) : 'a option =
  let key = internal_key raw_key in
  let klen = String.length key in
  let rec go node depth =
    match node with
    | Leaf l -> if String.equal l.key key then Some l.value else None
    | Inner inn ->
      let plen = String.length inn.prefix in
      if depth + plen >= klen then None
      else if
        common_prefix_len inn.prefix 0 key depth plen < plen
      then None
      else
        match child_get inn (Char.code key.[depth + plen]) with
        | None -> None
        | Some child -> go child (depth + plen + 1)
  in
  match t.root with None -> None | Some root -> go root 0

let mem t raw_key = find t raw_key <> None

let remove t (raw_key : string) : bool =
  let key = internal_key raw_key in
  let klen = String.length key in
  let rec go node depth : 'a node option * bool =
    match node with
    | Leaf l ->
      if String.equal l.key key then (None, true) else (Some node, false)
    | Inner inn ->
      let plen = String.length inn.prefix in
      if depth + plen >= klen
         || common_prefix_len inn.prefix 0 key depth plen < plen
      then (Some node, false)
      else begin
        let d = depth + plen in
        let b = Char.code key.[d] in
        match child_get inn b with
        | None -> (Some node, false)
        | Some child ->
          let child', removed = go child (d + 1) in
          if not removed then (Some node, false)
          else begin
            (match child' with
             | Some c -> child_set inn b c
             | None -> child_remove inn b);
            if inn.count = 0 then (None, true)
            else if inn.count = 1 then begin
              (* collapse the path into the single remaining child *)
              match only_child inn with
              | _, Leaf l -> (Some (Leaf l), true)
              | byte, Inner ci ->
                ci.prefix <-
                  inn.prefix ^ String.make 1 (Char.chr byte) ^ ci.prefix;
                (Some (Inner ci), true)
            end
            else (Some node, true)
          end
      end
  in
  match t.root with
  | None -> false
  | Some root ->
    let root', removed = go root 0 in
    t.root <- root';
    if removed then t.size <- t.size - 1;
    removed

(** In-order (ascending raw-key order) iteration. *)
let iter (f : string -> 'a -> unit) (t : 'a t) : unit =
  let rec go = function
    | Leaf l -> f (external_key l.key) l.value
    | Inner inn -> child_iter inn (fun _ c -> go c)
  in
  match t.root with None -> () | Some root -> go root

let fold (f : string -> 'a -> 'acc -> 'acc) (t : 'a t) (init : 'acc) : 'acc =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let to_list t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

let min_binding t =
  let rec go = function
    | Leaf l -> Some (external_key l.key, l.value)
    | Inner inn ->
      let first = ref None in
      child_iter inn (fun _ c -> if !first = None then first := Some c);
      (match !first with Some c -> go c | None -> None)
  in
  match t.root with None -> None | Some root -> go root

(* --- bulk build --- *)

(** Build from key-sorted, duplicate-free bindings. O(n) and produces the
    same dense layout a freshly-copied tree would have; significantly
    cheaper than [insert]-ing one by one, which is the effect the index
    benchmark (E2) demonstrates. *)
let of_sorted (bindings : (string * 'a) array) : 'a t =
  let n = Array.length bindings in
  let keys = Array.map (fun (k, _) -> internal_key k) bindings in
  for i = 1 to n - 1 do
    if String.compare keys.(i - 1) keys.(i) >= 0 then
      invalid_arg "Art.of_sorted: keys must be strictly increasing"
  done;
  let rec build lo hi depth : 'a node =
    if hi - lo = 1 then
      Leaf { key = keys.(lo); value = snd bindings.(lo) }
    else begin
      let first = keys.(lo) and last = keys.(hi - 1) in
      let limit =
        min (String.length first - depth) (String.length last - depth)
      in
      let c = common_prefix_len first depth last depth limit in
      let d = depth + c in
      (* count the distinct partition bytes first so the node can be
         allocated at its final kind — bulk build would otherwise pay the
         N4→N16→N48→N256 growth-copy chain on every wide node *)
      let distinct = ref 0 in
      let i = ref lo in
      while !i < hi do
        let b = Char.code keys.(!i).[d] in
        incr distinct;
        incr i;
        while !i < hi && Char.code keys.(!i).[d] = b do incr i done
      done;
      let kind =
        if !distinct <= 4 then N4
        else if !distinct <= 16 then N16
        else if !distinct <= 48 then N48
        else N256
      in
      let inn = make_inner ~kind (String.sub first depth c) in
      (* partition the (sorted) segment by the byte at [d] *)
      let start = ref lo in
      while !start < hi do
        let b = Char.code keys.(!start).[d] in
        let stop = ref (!start + 1) in
        while !stop < hi && Char.code keys.(!stop).[d] = b do incr stop done;
        child_set inn b (build !start !stop (d + 1));
        start := !stop
      done;
      Inner inn
    end
  in
  if n = 0 then create ()
  else { root = Some (build 0 n 0); size = n }

(* --- structural merge --- *)

(** Merge [src] into [dst]. Where the two trees' key spaces are disjoint at
    a node boundary, whole subtrees are linked without being visited —
    this is what makes chunked build-then-merge cheap for sorted or
    range-partitioned chunks. [combine] resolves duplicate keys (given the
    dst value then the src value). *)
let merge ~(combine : 'a -> 'a -> 'a) (dst : 'a t) (src : 'a t) : unit =
  let duplicates = ref 0 in
  let rec insert_subtree (into : 'a node) (sub : 'a node) (depth : int) : 'a node =
    (* generic fallback: walk [sub]'s leaves into [into]; [depth] is the
       tree depth at which [into] hangs, so stored full keys line up *)
    match sub with
    | Leaf l ->
      let node', added = insert_node into l.key depth ~combine l.value in
      if not added then incr duplicates;
      node'
    | Inner inn ->
      let acc = ref into in
      child_iter inn (fun _ c -> acc := insert_subtree !acc c depth);
      !acc
  in
  let rec merge_nodes (a : 'a node) (b : 'a node) (depth : int) : 'a node =
    match a, b with
    | Leaf _, _ -> insert_subtree b a depth
    | _, Leaf _ -> insert_subtree a b depth
    | Inner ia, Inner ib ->
      let pa = ia.prefix and pb = ib.prefix in
      let la = String.length pa and lb = String.length pb in
      let c = common_prefix_len pa 0 pb 0 (min la lb) in
      if c < la && c < lb then begin
        (* disjoint below a fresh split node: link both subtrees *)
        let parent = make_inner (String.sub pa 0 c) in
        let ba = Char.code pa.[c] and bb = Char.code pb.[c] in
        ia.prefix <- String.sub pa (c + 1) (la - c - 1);
        ib.prefix <- String.sub pb (c + 1) (lb - c - 1);
        child_set parent ba (Inner ia);
        child_set parent bb (Inner ib);
        Inner parent
      end
      else if la = lb then begin
        (* identical compressed paths: merge children bytewise *)
        child_iter ib (fun byte cb ->
            match child_get ia byte with
            | None -> child_set ia byte cb
            | Some ca -> child_set ia byte (merge_nodes ca cb (depth + la + 1)));
        Inner ia
      end
      else if la < lb then begin
        (* pa is a proper prefix of pb: descend into ia *)
        let byte = Char.code pb.[la] in
        ib.prefix <- String.sub pb (la + 1) (lb - la - 1);
        (match child_get ia byte with
         | None -> child_set ia byte (Inner ib)
         | Some ca -> child_set ia byte (merge_nodes ca (Inner ib) (depth + la + 1)));
        Inner ia
      end
      else begin
        let byte = Char.code pa.[lb] in
        ia.prefix <- String.sub pa (lb + 1) (la - lb - 1);
        (match child_get ib byte with
         | None -> child_set ib byte (Inner ia)
         | Some cb -> child_set ib byte (merge_nodes cb (Inner ia) (depth + lb + 1)));
        Inner ib
      end
  in
  match dst.root, src.root with
  | _, None -> ()
  | None, Some r ->
    dst.root <- Some r;
    dst.size <- src.size;
    src.root <- None;
    src.size <- 0
  | Some a, Some b ->
    let merged = merge_nodes a b 0 in
    dst.root <- Some merged;
    dst.size <- dst.size + src.size - !duplicates;
    src.root <- None;
    src.size <- 0

(* --- statistics, for EXPLAIN and the benchmarks --- *)

type stats = {
  leaves : int;
  inner4 : int;
  inner16 : int;
  inner48 : int;
  inner256 : int;
  max_depth : int;
}

let stats t =
  let s = ref { leaves = 0; inner4 = 0; inner16 = 0; inner48 = 0; inner256 = 0; max_depth = 0 } in
  let rec go node depth =
    let cur = !s in
    if depth > cur.max_depth then s := { !s with max_depth = depth };
    match node with
    | Leaf _ -> s := { !s with leaves = (!s).leaves + 1 }
    | Inner inn ->
      (match inn.kind with
       | N4 -> s := { !s with inner4 = (!s).inner4 + 1 }
       | N16 -> s := { !s with inner16 = (!s).inner16 + 1 }
       | N48 -> s := { !s with inner48 = (!s).inner48 + 1 }
       | N256 -> s := { !s with inner256 = (!s).inner256 + 1 });
      child_iter inn (fun _ c -> go c (depth + 1))
  in
  (match t.root with Some root -> go root 0 | None -> ());
  !s
