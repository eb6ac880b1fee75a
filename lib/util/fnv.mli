(** FNV-1a string hash.

    One definition for every consumer that must agree on it: hashed vertex
    placement ([Weaver_partition.Partition.hash_vertex]) and the heat
    sensor's key ranges ([Weaver_obs.Heat.range_of]). Ranges nest inside
    home shards only while both hash a vertex id the same way. *)

val hash : string -> int
(** 64-bit FNV-1a over the bytes of the string, masked to a non-negative
    [int]. *)
