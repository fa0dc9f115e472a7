package exec

import (
	"fmt"

	"structlayout/internal/ir"
)

// opcode is one operation of a compiled code stream: either an instruction
// the program executes or a control op standing for the structure of the
// procedure's execution tree.
type opcode uint8

const (
	opField   opcode = iota // struct field read or write
	opMem                   // region read or write
	opCompute               // burn cycles
	opLock                  // acquire a field-resident spinlock
	opUnlock                // release it
	opCall                  // push the return address, enter the callee's stream

	opBlock     // enter a block with instructions: count it, make it current
	opCtl       // an empty block or an if's join: count it, make it current, charge a branch
	opLoopEnter // count the loop entry, push its induction value
	opLoopHead  // opCtl for the header, then the next iteration or exit to target
	opBranch    // opCtl for the condition, then draw: the else arm is at target
	opJump      // continue at target
	opReturn    // pop the return address; at the entry's end, finish one iteration
)

// decInstr is one op of a procedure's code stream. An instruction op has
// every name and layout lookup it needs (arena pointer, field offset/size,
// region index, callee) resolved once at Run start, so the interpreter's
// loop performs no map probes. Control ops reuse the same fields (block,
// prob, cycles, field, target) rather than adding their own, which keeps
// the stream one flat array of one compact element type.
type decInstr struct {
	op      opcode
	write   bool
	pattern ir.MemPattern // opMem
	field   int32         // opField/opLock/opUnlock; opLoopEnter: the loop's global ID
	// target is a code index for opJump, opLoopHead (the loop exit) and
	// opBranch (the else arm), and the callee's procedure index for opCall.
	target int32
	// instIdx is the decode-resolved instance for shared-instance
	// expressions (the index is the same for every thread); other kinds
	// resolve through the per-thread tables (see instIndex).
	instIdx   int32
	regionIdx int32 // opMem

	arena    *arena // opField / opLock / opUnlock
	fieldOff int64
	size     int
	inst     ir.InstExpr

	cycles int64          // opCompute; opLoopEnter, opLoopHead: the trip count
	block  *ir.BasicBlock // opBlock, opCtl, opLoopHead, opBranch: the counted block
	prob   float64        // opBranch: probability of the then arm

	region *regionAlloc // opMem
	stride int64
	offset int64
}

// decode compiles every procedure into its code stream and points each
// thread at its entry's. Called once at Run start, after all DefineArena
// calls; errors here are the ones the interpreter used to raise lazily
// (missing arena, unknown region or callee).
func (r *Runner) decode() error {
	c := compiler{r: r, procIdx: make(map[*ir.Procedure]int32, len(r.prog.Procs))}
	for i, pr := range r.prog.Procs {
		c.procIdx[pr] = int32(i)
	}
	r.code = make([][]decInstr, len(r.prog.Procs))
	for i, pr := range r.prog.Procs {
		c.code = nil
		if err := c.nodes(pr.Tree); err != nil {
			return err
		}
		r.code[i] = append(c.code, decInstr{op: opReturn})
	}
	for _, t := range r.threads {
		t.code = r.code[c.procIdx[t.entry]]
	}
	return nil
}

// compiler lays one procedure's execution tree out as a straight-line code
// stream: each block's entry op followed by its instructions inline, loops
// as enter, head, body and back-jump, ifs as branch, then arm, jump over
// the else arm, else arm and join.
type compiler struct {
	r       *Runner
	procIdx map[*ir.Procedure]int32
	code    []decInstr
}

func (c *compiler) emit(d decInstr) int32 {
	c.code = append(c.code, d)
	return int32(len(c.code) - 1)
}

func (c *compiler) here() int32 { return int32(len(c.code)) }

func (c *compiler) nodes(nodes []ir.ExecNode) error {
	for _, n := range nodes {
		switch n := n.(type) {
		case *ir.ExecBlock:
			if len(n.Block.Instrs) == 0 {
				c.emit(decInstr{op: opCtl, block: n.Block})
				continue
			}
			c.emit(decInstr{op: opBlock, block: n.Block})
			if err := c.block(n.Block); err != nil {
				return err
			}
		case *ir.ExecLoop:
			c.emit(decInstr{op: opLoopEnter, field: int32(n.Loop.Global), cycles: n.Count})
			head := c.emit(decInstr{op: opLoopHead, block: n.Loop.Header, cycles: n.Count})
			if err := c.nodes(n.Body); err != nil {
				return err
			}
			c.emit(decInstr{op: opJump, target: head})
			c.code[head].target = c.here()
		case *ir.ExecIf:
			br := c.emit(decInstr{op: opBranch, block: n.Cond, prob: n.Prob})
			if err := c.nodes(n.Then); err != nil {
				return err
			}
			if len(n.Else) > 0 {
				skip := c.emit(decInstr{op: opJump})
				c.code[br].target = c.here()
				if err := c.nodes(n.Else); err != nil {
					return err
				}
				c.code[skip].target = c.here()
			} else {
				c.code[br].target = c.here()
			}
			c.emit(decInstr{op: opCtl, block: n.Join})
		default:
			return fmt.Errorf("exec: unknown node %T", n)
		}
	}
	return nil
}

// block appends b's decoded instructions.
func (c *compiler) block(b *ir.BasicBlock) error {
	r := c.r
	start := len(c.code)
	for _, in := range b.Instrs {
		d := decInstr{write: in.Acc == ir.Write}
		switch in.Op {
		case ir.OpCompute:
			d.op = opCompute
			d.cycles = in.Cycles
		case ir.OpCall:
			callee := r.prog.Proc(in.Callee)
			if callee == nil {
				return fmt.Errorf("exec: unknown procedure %q called in %s", in.Callee, b.Name())
			}
			d.op = opCall
			d.target = c.procIdx[callee]
		case ir.OpField, ir.OpLock, ir.OpUnlock:
			a := r.arenas[in.Struct.Name]
			if a == nil {
				return fmt.Errorf("exec: no arena for struct %s accessed in %s", in.Struct.Name, b.Name())
			}
			switch in.Op {
			case ir.OpField:
				d.op = opField
			case ir.OpLock:
				d.op = opLock
			default:
				d.op = opUnlock
			}
			d.arena = a
			d.field = int32(in.Field)
			d.fieldOff = int64(a.lay.Offsets[in.Field])
			d.size = in.Struct.Fields[in.Field].Size
			d.inst = in.Inst
			if in.Inst.Kind == ir.InstShared {
				d.instIdx = int32(in.Inst.Index % a.count)
			}
		case ir.OpMem:
			reg := r.regions[in.Region]
			if reg == nil {
				return fmt.Errorf("exec: unknown region %q", in.Region)
			}
			d.op = opMem
			d.region = reg
			d.regionIdx = int32(r.regionIdx[in.Region])
			d.pattern = in.Pattern
			d.stride = in.Stride
			d.offset = in.Offset
		case ir.OpSpawn, ir.OpJoin, ir.OpSend, ir.OpRecv:
			// Static-only fork/join skeleton markers: the interpreter
			// models spawned tasks as declared threads, so these carry no
			// dynamic semantics here (staticshare derives happens-before
			// from them) and compile to nothing.
			continue
		default:
			return fmt.Errorf("exec: unknown opcode %d", in.Op)
		}
		c.code = append(c.code, d)
	}
	if r.collector == nil && !r.slowPath {
		merged := mergeComputes(c.code[start:])
		c.code = c.code[:start+len(merged)]
	}
	return nil
}

// mergeComputes coalesces consecutive compute instructions into one
// virtual-time update. Computes touch no shared state — no coherence
// access, no profile count (blocks are counted at entry), no lock — so
// executing a run of them as one op instead of one per instruction cannot
// reorder any cross-thread access: a thread's time waypoints inside a
// pure-compute span are invisible to every other thread. Merging is
// disabled for sampled runs, where the collector must observe each
// instruction's time advance individually.
func mergeComputes(ds []decInstr) []decInstr {
	out := ds[:0]
	for _, d := range ds {
		if d.op == opCompute && len(out) > 0 && out[len(out)-1].op == opCompute {
			out[len(out)-1].cycles += d.cycles
			continue
		}
		out = append(out, d)
	}
	return out
}
