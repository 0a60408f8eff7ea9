(* Small helpers shared by test modules. *)

let init_zero a ~base ~count =
  for i = 0 to count - 1 do
    Icost_isa.Asm.init_word a ~addr:(base + (8 * i)) ~value:0
  done

(* FNV-1a (32-bit) over the little-endian bytes of a sequence of ints. *)
let fnv32 ints =
  Seq.fold_left
    (fun h v ->
      let h = ref h in
      for byte = 0 to 7 do
        h := ((!h lxor ((v lsr (8 * byte)) land 0xff)) * 0x01000193) land 0xffffffff
      done;
      !h)
    0x811c9dc5 ints
