package model

import "repro/internal/nn"

// NetworkOf exposes the network a New-built model executes, so the
// replica test can tell a shared network from a deep copy.
func NetworkOf(m Model) *nn.Network { return m.(*netModel).net }
