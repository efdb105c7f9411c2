package pebble

import "fmt"

// MoveKind enumerates the four legal moves of the red-blue pebble game
// (§2.2): load a blue-pebbled vertex into fast memory, store a red-pebbled
// vertex to slow memory, compute a vertex whose parents are all red, and
// free a pebble.
type MoveKind uint8

const (
	// Load places a red pebble on a vertex holding a blue pebble.
	Load MoveKind = iota
	// Store places a blue pebble on a vertex holding a red pebble.
	Store
	// Compute places a red pebble on a vertex whose parents all hold red
	// pebbles (inputs of the CDAG cannot be computed).
	Compute
	// DeleteRed removes a red pebble (frees fast memory).
	DeleteRed
	// DeleteBlue removes a blue pebble (frees slow memory).
	DeleteBlue
)

func (k MoveKind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Compute:
		return "compute"
	case DeleteRed:
		return "delete-red"
	case DeleteBlue:
		return "delete-blue"
	}
	return fmt.Sprintf("MoveKind(%d)", uint8(k))
}

// Move is one move of the game applied to vertex V.
type Move struct {
	Kind MoveKind
	V    VertexID
}

// Game is an in-progress red-blue pebbling of a CDAG with at most S red
// pebbles. The initial configuration has blue pebbles on exactly the
// inputs; a complete calculation ends with blue pebbles on all outputs.
type Game struct {
	g       *Graph
	s       int
	red     *Bitset
	blue    *Bitset
	loads   int
	stores  int
	peakRed int
}

// NewGame starts a pebbling of g with red-pebble capacity s.
func NewGame(g *Graph, s int) *Game {
	if s < 1 {
		panic(fmt.Sprintf("pebble: red capacity %d must be ≥ 1", s))
	}
	game := &Game{g: g, s: s, red: NewBitset(g.Len()), blue: NewBitset(g.Len())}
	for _, v := range g.Inputs() {
		game.blue.Add(v)
	}
	return game
}

// Apply performs one move, returning an error if it violates the rules.
// The state is unchanged on error.
func (game *Game) Apply(m Move) error {
	v := m.V
	if v < 0 || int(v) >= game.g.Len() {
		return fmt.Errorf("pebble: vertex %d out of range", v)
	}
	switch m.Kind {
	case Load:
		if !game.blue.Has(v) {
			return fmt.Errorf("pebble: load of %d without a blue pebble", v)
		}
		if !game.red.Has(v) && game.red.Len() >= game.s {
			return fmt.Errorf("pebble: load of %d exceeds %d red pebbles", v, game.s)
		}
		game.red.Add(v)
		game.loads++
	case Store:
		if !game.red.Has(v) {
			return fmt.Errorf("pebble: store of %d without a red pebble", v)
		}
		game.blue.Add(v)
		game.stores++
	case Compute:
		if len(game.g.Pred(v)) == 0 {
			return fmt.Errorf("pebble: compute of input vertex %d", v)
		}
		for _, u := range game.g.Pred(v) {
			if !game.red.Has(u) {
				return fmt.Errorf("pebble: compute of %d with non-red parent %d", v, u)
			}
		}
		if !game.red.Has(v) && game.red.Len() >= game.s {
			return fmt.Errorf("pebble: compute of %d exceeds %d red pebbles", v, game.s)
		}
		game.red.Add(v)
	case DeleteRed:
		if !game.red.Has(v) {
			return fmt.Errorf("pebble: delete-red of %d without a red pebble", v)
		}
		game.red.Remove(v)
	case DeleteBlue:
		if !game.blue.Has(v) {
			return fmt.Errorf("pebble: delete-blue of %d without a blue pebble", v)
		}
		game.blue.Remove(v)
	default:
		return fmt.Errorf("pebble: unknown move kind %v", m.Kind)
	}
	if game.red.Len() > game.peakRed {
		game.peakRed = game.red.Len()
	}
	return nil
}

// Run applies moves in order, stopping at the first illegal one.
func (game *Game) Run(moves []Move) error {
	for i, m := range moves {
		if err := game.Apply(m); err != nil {
			return fmt.Errorf("move %d (%v %d): %w", i, m.Kind, m.V, err)
		}
	}
	return nil
}

// Complete reports whether every output vertex holds a blue pebble — the
// terminal configuration of a complete calculation.
func (game *Game) Complete() bool {
	for _, v := range game.g.Outputs() {
		if !game.blue.Has(v) {
			return false
		}
	}
	return true
}

// IO returns the number of I/O operations performed so far: loads + stores.
func (game *Game) IO() int { return game.loads + game.stores }

// Loads returns the number of load moves performed.
func (game *Game) Loads() int { return game.loads }

// Stores returns the number of store moves performed.
func (game *Game) Stores() int { return game.stores }

// PeakRed returns the maximum number of simultaneously placed red pebbles.
func (game *Game) PeakRed() int { return game.peakRed }

// RedCount returns the current number of red pebbles.
func (game *Game) RedCount() int { return game.red.Len() }

// HasRed reports whether v currently holds a red pebble.
func (game *Game) HasRed(v VertexID) bool { return game.red.Has(v) }
