package model

import "cais/internal/kernel"

// Sharded is a sequence-sharded tensor handle: row block mi lives on
// Owner(mi); its tile publishes at the owner when the block's data is
// final (e.g. after a ReduceScatter or a sharded LN).
type Sharded struct {
	Buf    int
	MTiles int
	P      int // TP degree
}

// Owner maps a row block to the GPU holding it. Ownership is block-cyclic
// (round-robin): consecutive row blocks live on different GPUs, which
// spreads concurrent merge sessions across the switch ports of different
// home GPUs — the load balance the paper's 40 KB/port bound relies on.
func (s Sharded) Owner(mi int) int {
	if s.P <= 1 {
		return 0
	}
	return mi % s.P
}

// Tile is the global readiness tile for row block mi.
func (s Sharded) Tile(mi int) kernel.Tile {
	return kernel.Tile{Buf: s.Buf, Idx: mi}
}

// Gathered is a per-GPU replicated tensor handle: each GPU holds (or is
// receiving) a local copy of every row block; tile (mi, g) publishes when
// GPU g's copy of block mi is locally available.
type Gathered struct {
	Buf    int
	MTiles int
	P      int
}

// Tile is GPU g's local-copy readiness tile for row block mi.
func (g Gathered) Tile(mi, gpu int) kernel.Tile {
	return kernel.Tile{Buf: g.Buf, Idx: mi*g.P + gpu}
}

// LocalGrid is a per-GPU tile grid (column-parallel GEMM outputs,
// row-parallel GEMM partials): tile (mi, ni, g) publishes when GPU g's
// block is computed locally.
type LocalGrid struct {
	Buf    int
	MTiles int
	NTiles int
	P      int
}

// Tile is GPU g's readiness tile for block (mi, ni).
func (l LocalGrid) Tile(mi, ni, gpu int) kernel.Tile {
	return kernel.Tile{Buf: l.Buf, Idx: (mi*l.NTiles+ni)*l.P + gpu}
}

// RowTiles is GPU g's tiles of row mi, in column order.
func (l LocalGrid) RowTiles(mi, gpu int) kernel.Tiles {
	return kernel.Tiles{Tile: l.Tile(mi, 0, gpu), Stride: l.P, N: l.NTiles}
}

// PeerTiles is block (mi, ni) on every GPU of the grid, in GPU order (the
// pull-mode ReduceScatter gates on all P partials).
func (l LocalGrid) PeerTiles(mi, ni int) kernel.Tiles {
	return kernel.Tiles{Tile: l.Tile(mi, ni, 0), Stride: 1, N: l.P}
}
