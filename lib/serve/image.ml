(* Off-heap snapshot images: a frozen scheme is a tag plus three ordered
   lists of Bigarray sections (native ints, float64s and uint16s), saved
   to disk in a versioned, checksummed, mmap-friendly layout.

   File layout (every section 8-byte aligned, little-endian int64 header):

     magic "RONSRV01"                                            8 bytes
     version 2 | scheme tag | word_size | #isecs | #fsecs | #usecs 6 x int64
     per int section:    length | FNV-1a checksum                2 x int64 each
     per float section:  length | FNV-1a checksum                2 x int64 each
     per uint16 section: length | FNV-1a checksum                2 x int64 each
     int section payloads, in order                              8 bytes/elt
     float section payloads, in order                            8 bytes/elt
     uint16 section payloads, in order          2 bytes/elt, each zero-padded
                                                to a multiple of 8 bytes

   Lengths count elements. Sections are mapped with [Unix.map_file]
   (private mapping) on load, so a snapshot larger than RAM still serves;
   the checksum pass touches each word once and rejects torn or corrupted
   files before any query runs. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type u16s = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { scheme : int; isecs : ints array; fsecs : floats array; usecs : u16s array }

let magic = "RONSRV01"
let version = 2
let header_words = 6

let ints_create n : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let floats_create n : floats = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
let u16s_create n : u16s = Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout n

let ints_of_array a =
  let b = ints_create (Array.length a) in
  Array.iteri (fun i v -> Bigarray.Array1.unsafe_set b i v) a;
  b

let floats_of_array a =
  let b = floats_create (Array.length a) in
  Array.iteri (fun i v -> Bigarray.Array1.unsafe_set b i v) a;
  b

(* -- checksums: FNV-1a over the 64-bit words of a section ---------------- *)

(* A section is a run of little-endian 64-bit words: an int or float per
   word, or for uint16 four elements per word with the last word
   zero-filled. [stream] pushes them through a bounded buffer a
   buffer-full at a time and folds each into the section's FNV-1a hash: a
   save writes each full buffer out, a checksum drops it. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* Word [w] encoded at byte [off] of [buf], and folded into the hash [h]. *)
let[@inline] emit buf off w h =
  set64u buf off (if Sys.big_endian then bswap64 w else w);
  Int64.mul (Int64.logxor h w) fnv_prime

(* The per-kind loops: words [i, e) into [buf] from byte [pos]. *)
let fill_ints (a : ints) buf pos i e h =
  let h = ref h in
  for k = i to e - 1 do
    h := emit buf (pos + (8 * (k - i))) (Int64.of_int (Bigarray.Array1.unsafe_get a k)) !h
  done;
  !h

let fill_floats (a : floats) buf pos i e h =
  let h = ref h in
  for k = i to e - 1 do
    h := emit buf (pos + (8 * (k - i))) (Int64.bits_of_float (Bigarray.Array1.unsafe_get a k)) !h
  done;
  !h

(* Element [i] of a uint16 section of length [n], 0 past its end. *)
let[@inline] u16_at (a : u16s) n i = if i < n then Bigarray.Array1.unsafe_get a i else 0

let fill_u16s (a : u16s) buf pos i e h =
  let n = Bigarray.Array1.dim a and h = ref h in
  for k = i to e - 1 do
    let j = 4 * k in
    let low = u16_at a n j lor (u16_at a n (j + 1) lsl 16) lor (u16_at a n (j + 2) lsl 32) in
    let high = Int64.shift_left (Int64.of_int (u16_at a n (j + 3))) 48 in
    h := emit buf (pos + (8 * (k - i))) (Int64.logor (Int64.of_int low) high) !h
  done;
  !h

let u16_words n = (n + 3) / 4

(* [pos] is [buf]'s fill, shared by the sections of one save. *)
let stream ~flush buf pos words fill =
  let rec go i h =
    if i >= words then h
    else begin
      if !pos = Bytes.length buf then begin
        flush buf !pos;
        pos := 0
      end;
      let e = min words (i + ((Bytes.length buf - !pos) / 8)) in
      let h = fill buf !pos i e h in
      pos := !pos + (8 * (e - i));
      go e h
    end
  in
  go 0 fnv_offset

let checksum words fill = stream ~flush:(fun _ _ -> ()) (Bytes.create 4096) (ref 0) words fill
let checksum_ints a = checksum (Bigarray.Array1.dim a) (fill_ints a)
let checksum_floats a = checksum (Bigarray.Array1.dim a) (fill_floats a)
let checksum_u16s a = checksum (u16_words (Bigarray.Array1.dim a)) (fill_u16s a)

(* -- sizes --------------------------------------------------------------- *)

let header_bytes t =
  (* magic + header words + (len, checksum) per section *)
  8 + (8 * header_words)
  + (16 * (Array.length t.isecs + Array.length t.fsecs + Array.length t.usecs))

(* A uint16 payload's bytes, padded so the next section starts aligned. *)
let u16_bytes n = 8 * u16_words n

let payload_bytes t =
  let words secs = Array.fold_left (fun acc s -> acc + Bigarray.Array1.dim s) 0 secs in
  (8 * (words t.isecs + words t.fsecs))
  + Array.fold_left (fun acc s -> acc + u16_bytes (Bigarray.Array1.dim s)) 0 t.usecs

let byte_size t = header_bytes t + payload_bytes t

(* -- save ---------------------------------------------------------------- *)

(* Each section is encoded and hashed in one pass through a 64 KB buffer;
   the header, which holds the hashes, is written last, at the start of
   the file. Nothing is mapped, so a save holds no copy of the snapshot. *)
let save t file =
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let head = Bytes.create (header_bytes t) and buf = Bytes.create 65536 and pos = ref 0 in
      let flush b n = ignore (Unix.write fd b 0 n) in
      ignore (Unix.lseek fd (Bytes.length head) Unix.SEEK_SET);
      let word k v = Bytes.set_int64_le head (8 + (8 * k)) v in
      let k = ref header_words in
      let entry n words fill =
        word !k (Int64.of_int n);
        word (!k + 1) (stream ~flush buf pos words fill);
        k := !k + 2
      in
      let dim = Bigarray.Array1.dim in
      Array.iter (fun a -> entry (dim a) (dim a) (fill_ints a)) t.isecs;
      Array.iter (fun a -> entry (dim a) (dim a) (fill_floats a)) t.fsecs;
      Array.iter (fun a -> entry (dim a) (u16_words (dim a)) (fill_u16s a)) t.usecs;
      flush buf !pos;
      Bytes.blit_string magic 0 head 0 8;
      List.iteri
        (fun k v -> word k (Int64.of_int v))
        [ version; t.scheme; Sys.word_size; Array.length t.isecs; Array.length t.fsecs;
          Array.length t.usecs ];
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      flush head (Bytes.length head))

(* -- load ---------------------------------------------------------------- *)

let map fd kind ~pos n =
  Bigarray.array1_of_genarray
    (Unix.map_file fd ~pos:(Int64.of_int pos) kind Bigarray.c_layout false [| n |])

let read_exactly fd n =
  let buf = Bytes.create n in
  let got = ref 0 in
  (try
     while !got < n do
       let r = Unix.read fd buf !got (n - !got) in
       if r = 0 then raise Exit;
       got := !got + r
     done
   with Exit -> ());
  if !got = n then Some buf else None

let load file =
  match Unix.openfile file [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "%s: %s" file (Unix.error_message e))
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        (* Magic and version first: the version fixes the header's size. *)
        let hb = 8 + (8 * header_words) in
        match read_exactly fd 16 with
        | None -> Error (Printf.sprintf "%s: truncated header" file)
        | Some head when Bytes.sub_string head 0 8 <> magic ->
          Error (Printf.sprintf "%s: bad magic (not a snapshot)" file)
        | Some head when Bytes.get_int64_le head 8 <> Int64.of_int version ->
          Error
            (Printf.sprintf "%s: unsupported snapshot version %Ld" file (Bytes.get_int64_le head 8))
        | Some _ -> (
          match read_exactly fd (hb - 16) with
          | None -> Error (Printf.sprintf "%s: truncated header" file)
          | Some hdr -> (
            (* The header words after the version. *)
            let field k = Int64.to_int (Bytes.get_int64_le hdr (8 * k)) in
            let scheme = field 0 and word_size = field 1 in
            let ni = field 2 and nf = field 3 and nu = field 4 in
            let count = ni + nf + nu in
            if word_size <> Sys.word_size then
              Error
                (Printf.sprintf "%s: word size mismatch (snapshot %d, host %d)" file word_size
                   Sys.word_size)
            else if List.exists (fun c -> c < 0 || c > 4096) [ ni; nf; nu; count ] then
              Error (Printf.sprintf "%s: implausible section counts" file)
            else
              match read_exactly fd (16 * count) with
              | None -> Error (Printf.sprintf "%s: truncated section table" file)
              | Some tbl -> (
                let lens =
                  Array.init count (fun k -> Int64.to_int (Bytes.get_int64_le tbl (16 * k)))
                in
                let sums = Array.init count (fun k -> Bytes.get_int64_le tbl ((16 * k) + 8)) in
                let bytes k = if k < ni + nf then 8 * lens.(k) else u16_bytes lens.(k) in
                (* Every element takes at least a byte, so lengths up to the
                   file's size keep the payload's byte count from
                   overflowing, and no mapping reaches past the file. *)
                let file_bytes = (Unix.fstat fd).Unix.st_size in
                let ends () =
                  hb + (16 * count) + Array.fold_left ( + ) 0 (Array.init count bytes)
                in
                if Array.exists (fun l -> l < 0) lens then
                  Error (Printf.sprintf "%s: negative section length" file)
                else if Array.exists (fun l -> l > file_bytes) lens || ends () > file_bytes then
                  Error (Printf.sprintf "%s: truncated payload (%d bytes)" file file_bytes)
                else
                  try
                    let pos = ref (hb + (16 * count)) in
                    (* Section [k] of the table, the [i]th of its kind. *)
                    let section kind create checksum what k i =
                      let n = lens.(k) in
                      let s = if n = 0 then create 0 else map fd kind ~pos:!pos n in
                      pos := !pos + bytes k;
                      if checksum s <> sums.(k) then
                        failwith (Printf.sprintf "%s section %d checksum mismatch" what i);
                      s
                    in
                    let isecs =
                      Array.init ni (fun i ->
                          section Bigarray.int ints_create checksum_ints "int" i i)
                    in
                    let fsecs =
                      Array.init nf (fun i ->
                          section Bigarray.float64 floats_create checksum_floats "float" (ni + i) i)
                    in
                    let usecs =
                      Array.init nu (fun i ->
                          section Bigarray.int16_unsigned u16s_create checksum_u16s "uint16"
                            (ni + nf + i) i)
                    in
                    Ok { scheme; isecs; fsecs; usecs }
                  with
                  | Failure msg -> Error (Printf.sprintf "%s: %s" file msg)
                  | Unix.Unix_error (e, _, _) ->
                    Error (Printf.sprintf "%s: truncated payload (%s)" file (Unix.error_message e))
                  | Sys_error msg -> Error (Printf.sprintf "%s: %s" file msg)))))
