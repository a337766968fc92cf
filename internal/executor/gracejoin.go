package executor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"

	"perm/internal/algebra"
	"perm/internal/spill"
	"perm/internal/value"
)

// This file is the spill path of the hash join: grace hash partitioning for
// build sides that exceed work_mem. Both inputs route to paired disk
// partitions by join-key hash, each partition pair joins independently (one
// level deeper when its build half is itself over budget), and the
// sequence-tagged outputs merge back into the exact order the in-memory
// probe loop would have produced:
//
//   - every output row is tagged probeSeq<<joinSeqShift|chunk, so the k-way
//     merge replays probes in input order with matches in build-insertion
//     order (chunks load in build order), exactly like the in-memory path;
//   - FULL/RIGHT tail rows are tagged (nProbe+buildOrdinal)<<joinSeqShift,
//     sorting the unmatched build rows after every probe output in
//     build-insertion order, again exactly like the in-memory tail.
//
// A partition whose build half is over budget re-partitions one level deeper
// while that can separate keys; a partition dominated by one hot key (which
// no amount of rehashing can split) instead joins in chunks: load a
// budget-sized slice of the build half, stream the whole probe file against
// it, repeat — the classic block hash join fallback, with a probe-matched
// bitmap carrying LEFT/FULL/ANTI/SEMI semantics across chunks.
//
// Rows whose strict-equality key evaluates to NULL can never match; they
// route by their empty key (one fixed partition per level) purely so
// LEFT/ANTI probes still emit and FULL/RIGHT build rows still reach the tail.

// joinSeqShift widens the output sequence space so every (probe row, build
// chunk) pair gets a unique tag: chunk joins of the same probe row land in
// different files, and the merger's heap only orders distinct sequences.
// 20 bits allow ~1M chunks per partition (each at least minBufferRows rows)
// before tags saturate at joinChunkMask and ties become possible.
const joinSeqShift = 20
const joinChunkMask = (1 << joinSeqShift) - 1

// appendJoinRec encodes one partitioned join input record: the row's ordinal
// on its side (build ordinal or probe sequence), whether it is hashable, its
// framed key, then the exact row.
func appendJoinRec(dst []byte, ord uint64, hashable bool, key []byte, row value.Row) []byte {
	dst = binary.AppendUvarint(dst, ord)
	if hashable {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	return spill.AppendRow(dst, row)
}

// decodeJoinRec reverses appendJoinRec. The returned key aliases rec and is
// only valid until the next file read.
func decodeJoinRec(rec []byte) (ord uint64, hashable bool, key []byte, row value.Row, err error) {
	ord, n := binary.Uvarint(rec)
	if n <= 0 || len(rec) < n+1 {
		return 0, false, nil, nil, fmt.Errorf("executor: corrupt join spill record (ordinal)")
	}
	hashable = rec[n] != 0
	rec = rec[n+1:]
	klen, n := binary.Uvarint(rec)
	if n <= 0 || uint64(len(rec)-n) < klen {
		return 0, false, nil, nil, fmt.Errorf("executor: corrupt join spill record (key)")
	}
	key = rec[n : n+int(klen)]
	row, _, err = spill.DecodeRow(rec[n+int(klen):])
	return ord, hashable, key, row, err
}

// openGrace finishes the join on disk after the build side crossed the
// budget: buffered is the accounted in-memory prefix (with keys already
// computed), total the build rows drained so far. It consumes the rest of the
// right input and the whole left input, then joins partition pairs and arms
// the merger.
func (h *hashJoinIter) openGrace(buffered []buildRow, total int) error {
	ctx := h.ctx
	pool := ctx.Mem.Pool()
	buildParts := newPartitionSet(pool, &h.reg, 0)
	probeParts := newPartitionSet(pool, &h.reg, 0)

	var rec []byte
	nBuild := uint64(0)
	for i := range buffered {
		br := &buffered[i]
		rec = appendJoinRec(rec[:0], nBuild, br.key != nil, br.key, br.row)
		if err := buildParts.route(br.key, rec); err != nil {
			h.right.Close()
			return err
		}
		nBuild++
	}
	h.acct.releaseAll()
	// Route the rest of the build input straight to disk.
	for {
		if err := ctx.tick(); err != nil {
			h.right.Close()
			return err
		}
		row, err := h.right.Next()
		if err != nil {
			h.right.Close()
			return err
		}
		if row == nil {
			break
		}
		total++
		if ctx.RowBudget > 0 && total > int(ctx.RowBudget) {
			h.right.Close()
			return fmt.Errorf("executor: intermediate result exceeds row budget of %d rows", ctx.RowBudget)
		}
		key, hashable, err := h.appendKey(h.keyScratch[:0], row, h.rightKey)
		h.keyScratch = key
		if err != nil {
			h.right.Close()
			return err
		}
		if !hashable {
			key = nil
		}
		rec = appendJoinRec(rec[:0], nBuild, hashable, key, row)
		if err := buildParts.route(key, rec); err != nil {
			h.right.Close()
			return err
		}
		nBuild++
	}
	h.right.Close()
	if ctx.owner != nil {
		ctx.owner.BuildRows = int64(nBuild)
	}

	// Route the probe input the same way, tagging each row with its sequence.
	if err := h.left.Open(ctx); err != nil {
		return err
	}
	nProbe := uint64(0)
	for {
		if err := ctx.tick(); err != nil {
			return err
		}
		row, err := h.left.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		key, hashable, err := h.appendKey(h.keyScratch[:0], row, h.leftKey)
		h.keyScratch = key
		if err != nil {
			return err
		}
		if !hashable {
			key = nil
		}
		rec = appendJoinRec(rec[:0], nProbe, hashable, key, row)
		if err := probeParts.route(key, rec); err != nil {
			return err
		}
		nProbe++
	}

	var outputs []*spill.File
	for i := 0; i < spillPartitions; i++ {
		if err := h.joinPartition(buildParts.files[i], probeParts.files[i], 1, nProbe, &outputs); err != nil {
			return err
		}
	}
	m, err := newSeqMerger(ctx, &h.reg, outputs)
	if err != nil {
		return err
	}
	h.merger = m
	return nil
}

// rerouteJoinFile re-reads a partition file and redistributes every record
// one level deeper (the per-level hash salt sends what this level hashed
// together to different sub-partitions).
func rerouteJoinFile(f *spill.File, ps *partitionSet, tick func() error) error {
	if f == nil {
		return nil
	}
	if err := f.StartRead(); err != nil {
		return err
	}
	for {
		if err := tick(); err != nil {
			return err
		}
		rec, err := f.Next()
		if err != nil {
			return err
		}
		if rec == nil {
			return f.Close()
		}
		_, hashable, key, _, err := decodeJoinRec(rec)
		if err != nil {
			return err
		}
		if !hashable {
			key = nil
		}
		if err := ps.route(key, rec); err != nil {
			return err
		}
	}
}

// joinPartition joins one build/probe partition pair. The build half loads
// into memory in budget-sized chunks: a single-chunk partition joins exactly
// like the in-memory path; one that is over budget either re-partitions a
// level deeper (when its first chunk shows more than one key, so rehashing
// can separate them) or block-joins chunk by chunk against repeated probe
// scans. Outputs are sequence-tagged files appended to outputs.
func (h *hashJoinIter) joinPartition(bf, pf *spill.File, level int, tailBase uint64, outputs *[]*spill.File) error {
	if bf == nil && pf == nil {
		return nil
	}
	ctx := h.ctx
	kind := h.op.Kind
	wantTail := kind == algebra.JoinFull || kind == algebra.JoinRight
	probeAlone := kind == algebra.JoinLeft || kind == algebra.JoinFull || kind == algebra.JoinAnti
	if bf == nil && !wantTail && !probeAlone {
		// No build rows and the join kind emits nothing for unmatched probes.
		pf.Close()
		return nil
	}

	acct := memAcct{ctx: ctx}
	defer acct.releaseAll()

	// Chunked build-half reader. pending holds one looked-ahead record (the
	// peek that discovers whether a full chunk was the final one).
	var pending []byte
	var brs []buildRow
	var ords []uint64
	multiKey := false
	loadChunk := func() (last bool, err error) {
		brs, ords = brs[:0], ords[:0]
		acct.releaseAll()
		if bf == nil {
			return true, nil
		}
		for {
			if err := ctx.tick(); err != nil {
				return false, err
			}
			rec := pending
			pending = nil
			if rec == nil {
				if rec, err = bf.Next(); err != nil {
					return false, err
				}
				if rec == nil {
					return true, nil
				}
			}
			ord, hashable, key, row, err := decodeJoinRec(rec)
			if err != nil {
				return false, err
			}
			br := buildRow{row: row}
			if hashable {
				br.key = append([]byte(nil), key...)
			}
			if len(brs) > 0 && !multiKey && !bytes.Equal(br.key, brs[0].key) {
				multiKey = true
			}
			brs = append(brs, br)
			ords = append(ords, ord)
			acct.grow(rowBytes(row) + int64(len(br.key)) + buildRowFixedBytes)
			if acct.spillable() && acct.over() && len(brs) >= minBufferRows {
				// Chunk full; peek whether the file has more.
				nxt, err := bf.Next()
				if err != nil {
					return false, err
				}
				if nxt == nil {
					return true, nil
				}
				pending = append([]byte(nil), nxt...)
				return false, nil
			}
		}
	}
	if bf != nil {
		if err := bf.StartRead(); err != nil {
			return err
		}
	}
	last, err := loadChunk()
	if err != nil {
		return err
	}
	if !last && multiKey && level < maxSpillLevel {
		// Over budget with separable keys: re-partition both halves a level
		// deeper (rerouteJoinFile rewinds bf, discarding the partial chunk)
		// and recurse per sub-pair.
		brs, ords, pending = nil, nil, nil
		acct.releaseAll()
		pool := ctx.Mem.Pool()
		subBuild := newPartitionSet(pool, &h.reg, level)
		subProbe := newPartitionSet(pool, &h.reg, level)
		if err := rerouteJoinFile(bf, subBuild, ctx.tick); err != nil {
			return err
		}
		if err := rerouteJoinFile(pf, subProbe, ctx.tick); err != nil {
			return err
		}
		for i := 0; i < spillPartitions; i++ {
			if err := h.joinPartition(subBuild.files[i], subProbe.files[i], level+1, tailBase, outputs); err != nil {
				return err
			}
		}
		return nil
	}

	var out *spill.File
	var outRec []byte
	emit := func(seq uint64, row value.Row) error {
		if out == nil {
			f, err := ctx.Mem.Pool().Create()
			if err != nil {
				return err
			}
			h.reg.add(f)
			*outputs = append(*outputs, f)
			out = f
		}
		outRec = appendSeqRow(outRec[:0], seq, row)
		return out.Append(outRec)
	}

	// seen is the cross-chunk probe-matched bitmap, indexed by the probe
	// row's position in this partition's file (identical on every scan).
	// Only a multi-chunk partition allocates it. Its words are charged to
	// bmAcct, which lives for the whole partition.
	bmAcct := memAcct{ctx: ctx}
	defer bmAcct.releaseAll()
	var seen []uint64
	setSeen := func(p uint64) {
		w := p >> 6
		for uint64(len(seen)) <= w {
			seen = append(seen, 0)
			bmAcct.grow(8)
		}
		seen[w] |= 1 << (p & 63)
	}
	getSeen := func(p uint64) bool {
		w := p >> 6
		return w < uint64(len(seen)) && seen[w]&(1<<(p&63)) != 0
	}

	nLeft := len(h.op.Left.Schema())
	nRight := len(h.op.Right.Schema())
	var comb value.Row
	chunk := uint64(0)
	for {
		// One output file per chunk: within a chunk, emission follows the
		// probe scan (ascending seq) then the tail (ascending past-the-probes
		// tags), so each file is ascending — the merger's invariant. A shared
		// file would interleave chunk rounds and break it.
		out = nil
		multiChunk := chunk > 0 || !last
		// Chunk tags saturate at joinChunkMask: beyond ~1M chunks per
		// partition ordering among a probe's own matches could degrade, but
		// each chunk holds at least minBufferRows rows so that is unreachable
		// for any input the row budget admits.
		chunkTag := chunk
		if chunkTag > joinChunkMask {
			chunkTag = joinChunkMask
		}
		table := make(map[uint64][]int32, len(brs))
		for i := range brs {
			if brs[i].key != nil {
				sum := maphash.Bytes(joinHashSeed, brs[i].key)
				table[sum] = append(table[sum], int32(i))
			}
		}
		if pf != nil {
			if err := pf.StartRead(); err != nil {
				return err
			}
			var pos uint64
			for {
				if err := ctx.tick(); err != nil {
					return err
				}
				rec, err := pf.Next()
				if err != nil {
					return err
				}
				if rec == nil {
					break
				}
				pos++
				seq, hashable, key, probe, err := decodeJoinRec(rec)
				if err != nil {
					return err
				}
				if (kind == algebra.JoinSemi || kind == algebra.JoinAnti) && multiChunk && getSeen(pos-1) {
					continue // match already resolved in an earlier chunk
				}
				matched := false
				if hashable {
					sum := maphash.Bytes(joinHashSeed, key)
				matchLoop:
					for _, bi := range table[sum] {
						br := &brs[bi]
						if !bytes.Equal(br.key, key) {
							continue
						}
						ok := true
						var combined value.Row
						if h.cond != nil {
							combined = combineScratch(&comb, probe, br.row)
							ok, err = h.cond(combined, ctx)
							if err != nil {
								return err
							}
						}
						if !ok {
							continue
						}
						matched = true
						br.matched = true
						switch kind {
						case algebra.JoinSemi:
							if err := emit(seq<<joinSeqShift|chunkTag, probe); err != nil {
								return err
							}
							break matchLoop
						case algebra.JoinAnti:
							break matchLoop
						default:
							if combined == nil {
								combined = combineScratch(&comb, probe, br.row)
							}
							if err := emit(seq<<joinSeqShift|chunkTag, combined); err != nil {
								return err
							}
						}
					}
				}
				if matched && multiChunk {
					setSeen(pos - 1)
				}
				if !matched && last && probeAlone && !(multiChunk && getSeen(pos-1)) {
					// Unmatched across every chunk: LEFT/FULL null-pad, ANTI
					// passes the probe through.
					var row value.Row
					if kind == algebra.JoinAnti {
						row = probe
					} else {
						row = value.Concat(probe, value.NullRow(nRight))
					}
					if err := emit(seq<<joinSeqShift|chunkTag, row); err != nil {
						return err
					}
				}
			}
		}
		if wantTail {
			for i := range brs {
				if h.tailMatched != nil {
					// A parallel worker: the exchange emits the tail.
					h.tailMatched[ords[i]] = brs[i].matched
				} else if !brs[i].matched {
					if err := emit((tailBase+ords[i])<<joinSeqShift, value.Concat(value.NullRow(nLeft), brs[i].row)); err != nil {
						return err
					}
				}
			}
		}
		if last {
			break
		}
		chunk++
		if last, err = loadChunk(); err != nil {
			return err
		}
	}
	if bf != nil {
		if err := bf.Close(); err != nil {
			return err
		}
	}
	if pf != nil {
		if err := pf.Close(); err != nil {
			return err
		}
	}
	return nil
}
