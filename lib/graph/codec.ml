module Wire = Weaver_util.Wire
module Vclock = Weaver_vclock.Vclock

let format_version = 1

let encode_stamp w (ts : Vclock.t) =
  Wire.Writer.varint w ts.Vclock.epoch;
  Wire.Writer.varint w ts.Vclock.origin;
  Wire.Writer.list w (Wire.Writer.varint w) (Array.to_list ts.Vclock.clocks)

let decode_stamp r =
  let epoch = Wire.Reader.varint r in
  let origin = Wire.Reader.varint r in
  let clocks = Array.of_list (Wire.Reader.list r (fun () -> Wire.Reader.varint r)) in
  if origin >= Array.length clocks then raise (Wire.Reader.Corrupt "stamp origin out of range");
  Vclock.make ~epoch ~origin clocks

let encode_life w (l : Mgraph.lifespan) =
  encode_stamp w l.Mgraph.created;
  Wire.Writer.option w (encode_stamp w) l.Mgraph.deleted

let decode_life r =
  let created = decode_stamp r in
  let deleted = Wire.Reader.option r (fun () -> decode_stamp r) in
  { Mgraph.created; deleted }

let encode_prop w (p : Mgraph.prop) =
  Wire.Writer.string w p.Mgraph.pkey;
  Wire.Writer.string w p.Mgraph.pval;
  encode_life w p.Mgraph.p_life

let decode_prop r =
  let pkey = Wire.Reader.string r in
  let pval = Wire.Reader.string r in
  let p_life = decode_life r in
  { Mgraph.pkey; pval; p_life }

let encode_edge w (e : Mgraph.edge) =
  Wire.Writer.string w e.Mgraph.eid;
  Wire.Writer.string w e.Mgraph.dst;
  encode_life w e.Mgraph.e_life;
  Wire.Writer.list w (encode_prop w) (Array.to_list e.Mgraph.e_props)

let decode_edge r =
  let eid = Wire.Reader.string r in
  let dst = Wire.Reader.string r in
  let e_life = decode_life r in
  let e_props = Array.of_list (Wire.Reader.list r (fun () -> decode_prop r)) in
  { Mgraph.eid; dst; e_life; e_props }

let encode_vertex (v : Mgraph.vertex) =
  let w = Wire.Writer.create () in
  Wire.Writer.varint w format_version;
  Wire.Writer.string w v.Mgraph.vid;
  encode_life w v.Mgraph.v_life;
  Wire.Writer.list w (encode_prop w) (Array.to_list v.Mgraph.v_props);
  Wire.Writer.list w (encode_edge w) (Array.to_list v.Mgraph.out);
  Wire.Writer.contents w

let decode_vertex data =
  let r = Wire.Reader.create data in
  let version = Wire.Reader.varint r in
  if version <> format_version then
    raise (Wire.Reader.Corrupt ("unsupported format version " ^ string_of_int version));
  let vid = Wire.Reader.string r in
  let v_life = decode_life r in
  let v_props = Array.of_list (Wire.Reader.list r (fun () -> decode_prop r)) in
  let out = Array.of_list (Wire.Reader.list r (fun () -> decode_edge r)) in
  if not (Wire.Reader.at_end r) then raise (Wire.Reader.Corrupt "trailing bytes");
  { Mgraph.vid; v_life; v_props; out }
