package ir

import "fmt"

// BlockID is a program-global basic-block identifier, assigned at Finalize.
// Profiles, samples and concurrency maps key on BlockID.
type BlockID int32

// BasicBlock is a maximal straight-line run of instructions plus the
// synthetic control blocks (loop headers, branch/join points) produced by
// lowering. Every block carries exactly one synthetic source line; the
// field-mapping file and the concurrency map both key on that line,
// mirroring the paper's IP→source→block correlation (§4.3).
type BasicBlock struct {
	// Index is the block's position within its procedure.
	Index int
	// Global is the program-wide ID, valid after Program.Finalize.
	Global BlockID
	// Proc is the owning procedure.
	Proc *Procedure
	// Instrs are the executable instructions; empty for synthetic blocks.
	Instrs []Instr
	// Succs and Preds are the CFG edges.
	Succs, Preds []*BasicBlock
	// Loop is the innermost loop containing this block, nil if none.
	Loop *Loop
	// Line is the block's synthetic source line.
	Line SourceLine
	// Synthetic marks control-only blocks (headers, conditions, joins).
	Synthetic bool
}

// Name renders proc#index for diagnostics.
func (b *BasicBlock) Name() string { return fmt.Sprintf("%s#%d", b.Proc.Name, b.Index) }

// LoopDepth returns the nesting depth (0 = not in a loop).
func (b *BasicBlock) LoopDepth() int {
	if b.Loop == nil {
		return 0
	}
	return b.Loop.Depth
}

// FieldInstrs returns the field-touching instructions (OpField, OpLock,
// OpUnlock) in the block. Lock operations count as accesses to their field:
// the paper explicitly lists "co-location of lock with the accessed data"
// as a layout concern, and a lock word is just a hot, write-shared field.
func (b *BasicBlock) FieldInstrs() []Instr {
	var out []Instr
	for _, in := range b.Instrs {
		switch in.Op {
		case OpField, OpLock, OpUnlock:
			out = append(out, in)
		}
	}
	return out
}

// Loop is a natural loop produced by lowering a LoopStmt.
type Loop struct {
	// Index is the loop's position within its procedure (preorder).
	Index int
	// Global is the program-wide loop ID, valid after Program.Finalize.
	Global int
	// Proc is the owning procedure.
	Proc *Procedure
	// Parent is the enclosing loop, nil for top-level loops.
	Parent *Loop
	// Children are directly nested loops.
	Children []*Loop
	// Depth is the nesting depth; 1 for outermost loops.
	Depth int
	// Header is the synthetic header block (the trip-count test).
	Header *BasicBlock
	// Blocks are the blocks whose innermost containing loop is this loop
	// (blocks of nested loops live in the nested loop's Blocks).
	Blocks []*BasicBlock
	// TripCount is the static per-entry iteration count.
	TripCount int64

	stmt *LoopStmt
}

// Name renders proc$index.
func (l *Loop) Name() string { return fmt.Sprintf("%s$L%d", l.Proc.Name, l.Index) }

// AllBlocks returns the loop's blocks including nested loops', preorder.
func (l *Loop) AllBlocks() []*BasicBlock {
	out := append([]*BasicBlock(nil), l.Blocks...)
	for _, c := range l.Children {
		out = append(out, c.AllBlocks()...)
	}
	return out
}

// ExecNode is a node of the structured execution tree the interpreter
// compiles into its code stream. Lowering produces one tree per procedure
// whose leaves reference the CFG blocks, so interpretation and CFG-based
// analysis agree exactly on block execution counts.
type ExecNode interface{ execNode() }

// ExecBlock executes one basic block's instructions.
type ExecBlock struct{ Block *BasicBlock }

// ExecLoop executes Body Count times. Header is counted once per iteration
// test (Count+1 times per entry).
type ExecLoop struct {
	Loop  *Loop
	Count int64
	Body  []ExecNode
}

// ExecIf draws against Prob; Cond is counted every execution, Join once per
// execution after the taken arm.
type ExecIf struct {
	Prob       float64
	Cond, Join *BasicBlock
	Then, Else []ExecNode
}

func (*ExecBlock) execNode() {}
func (*ExecLoop) execNode()  {}
func (*ExecIf) execNode()    {}

// Procedure is a single function: a structured body plus, after lowering,
// its CFG, loop nest and execution tree.
type Procedure struct {
	Name string
	// Body is the structured AST the builder produced.
	Body []Stmt
	// Blocks is the lowered CFG in creation order; Blocks[0] is the entry.
	Blocks []*BasicBlock
	// Entry and Exit delimit the CFG.
	Entry, Exit *BasicBlock
	// Loops lists all loops preorder (outer before inner).
	Loops []*Loop
	// Tree is the structured execution tree for the interpreter.
	Tree []ExecNode

	program *Program
}

// Program returns the owning program.
func (pr *Procedure) Program() *Program { return pr.program }
