package core

import (
	"repro/internal/dist"
	"repro/internal/wire"
)

// exchangeInts broadcasts one integer on the masked ports (nil mask = all)
// and returns the integers received on those ports, in port order.
func exchangeInts(v dist.Process, mask []bool, own int) []int {
	deg := v.Deg()
	out := make([][]byte, deg)
	msg := wire.EncodeInts(own)
	for port := 0; port < deg; port++ {
		if mask == nil || mask[port] {
			out[port] = msg
		}
	}
	in := v.Round(out)
	var nbrs []int
	for port := 0; port < deg; port++ {
		if (mask == nil || mask[port]) && in[port] != nil {
			val, err := wire.DecodeInt(in[port])
			if err != nil {
				panic("core: bad message: " + err.Error())
			}
			nbrs = append(nbrs, val)
		}
	}
	return nbrs
}

// exchangeIntsByPort broadcasts one integer on the masked ports and returns
// the received integer per port (0 where nothing arrived).
func exchangeIntsByPort(v dist.Process, mask []bool, own int) []int {
	deg := v.Deg()
	out := make([][]byte, deg)
	msg := wire.EncodeInts(own)
	for port := 0; port < deg; port++ {
		if mask == nil || mask[port] {
			out[port] = msg
		}
	}
	in := v.Round(out)
	res := make([]int, deg)
	for port := 0; port < deg; port++ {
		if (mask == nil || mask[port]) && in[port] != nil {
			val, err := wire.DecodeInt(in[port])
			if err != nil {
				panic("core: bad message: " + err.Error())
			}
			res[port] = val
		}
	}
	return res
}
