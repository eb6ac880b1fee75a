module Wire = Weaver_util.Wire
module Codec = Weaver_graph.Codec
module Store = Weaver_store.Store
module Vclock = Weaver_vclock.Vclock

let magic = "WVRBK1"

let dump cluster =
  let rt = Cluster.runtime cluster in
  let entries = Store.scan_prefix rt.Runtime.store ~prefix:"" in
  let w = Wire.Writer.create () in
  Wire.Writer.string w magic;
  Wire.Writer.varint w rt.Runtime.cfg.Config.n_gatekeepers;
  Wire.Writer.list w
    (fun (key, value) ->
      Wire.Writer.string w key;
      match (value : Runtime.stored) with
      | Runtime.Vrec v ->
          Wire.Writer.varint w 0;
          Wire.Writer.string w (Codec.encode_vertex v)
      | Runtime.Stamp ts ->
          Wire.Writer.varint w 1;
          Codec.encode_stamp w ts
      | Runtime.Dir shard ->
          Wire.Writer.varint w 2;
          Wire.Writer.varint w shard)
    entries;
  Wire.Writer.contents w

let restore cluster data =
  let rt = Cluster.runtime cluster in
  let r = Wire.Reader.create data in
  if not (String.equal (Wire.Reader.string r) magic) then
    raise (Wire.Reader.Corrupt "not a weaver backup");
  let dims = Wire.Reader.varint r in
  if dims <> rt.Runtime.cfg.Config.n_gatekeepers then
    invalid_arg
      (Printf.sprintf "Backup.restore: dump has %d gatekeepers, cluster has %d" dims
         rt.Runtime.cfg.Config.n_gatekeepers);
  if Store.length rt.Runtime.store > 0 then
    invalid_arg "Backup.restore: the cluster's store already holds data";
  let entries =
    Wire.Reader.list r (fun () ->
        let key = Wire.Reader.string r in
        let value =
          match Wire.Reader.varint r with
          | 0 -> Runtime.Vrec (Codec.decode_vertex (Wire.Reader.string r))
          | 1 -> Runtime.Stamp (Codec.decode_stamp r)
          | 2 -> Runtime.Dir (Wire.Reader.varint r)
          | n -> raise (Wire.Reader.Corrupt ("bad entry tag " ^ string_of_int n))
        in
        (key, value))
  in
  Store.load rt.Runtime.store entries;
  Cluster.reload_shards cluster
