//go:build amd64 && !purego

#include "textflag.h"

// AVX2 micro-kernels for matmul.go. The rule they all keep: lanes run across
// output columns, every output adds its terms one at a time in ascending
// reduction order as VMULPD then VADDPD (running sum first), never VFMADD,
// never a horizontal sum. Each lane therefore performs exactly the scalar
// operations of the Go loops, in the same order, and the results agree bit
// for bit.

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE | AVX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX // leaf 7 EBX bit 5: AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)
done:
	RET

// FOLD4 folds one quad of terms onto four columns at byte offset AX:
// acc = (((d + v0·b0) + v1·b1) + v2·b2) + v3·b3 with d in acc on entry.
#define FOLD4(acc, tmp, off) \
	VMULPD off(R11)(AX*1), Y0, tmp; \
	VADDPD tmp, acc, acc; \
	VMULPD off(R12)(AX*1), Y1, tmp; \
	VADDPD tmp, acc, acc; \
	VMULPD off(R13)(AX*1), Y2, tmp; \
	VADDPD tmp, acc, acc; \
	VMULPD off(R14)(AX*1), Y3, tmp; \
	VADDPD tmp, acc, acc

// func foldTermsAVX2(d, b *float64, ps *int, vs *float64, terms, cols, n int)
TEXT ·foldTermsAVX2(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ps+16(FP), R8
	MOVQ vs+24(FP), R9
	MOVQ terms+32(FP), CX
	MOVQ cols+40(FP), DX
	MOVQ n+48(FP), R10
	SHLQ $3, R10 // bytes per b row
	SHLQ $3, DX  // bytes per pass over d

quad:
	CMPQ CX, $4
	JLT  single
	MOVQ 0(R8), R11
	MOVQ 8(R8), R12
	MOVQ 16(R8), R13
	MOVQ 24(R8), R14
	IMULQ R10, R11
	IMULQ R10, R12
	IMULQ R10, R13
	IMULQ R10, R14
	ADDQ SI, R11
	ADDQ SI, R12
	ADDQ SI, R13
	ADDQ SI, R14
	VBROADCASTSD 0(R9), Y0
	VBROADCASTSD 8(R9), Y1
	VBROADCASTSD 16(R9), Y2
	VBROADCASTSD 24(R9), Y3
	XORQ AX, AX
	MOVQ DX, BX
	SUBQ $64, BX // last offset at which eight columns remain
	JLT  quad4

quad8:
	VMOVUPD 0(DI)(AX*1), Y4
	VMOVUPD 32(DI)(AX*1), Y6
	FOLD4(Y4, Y5, 0)
	FOLD4(Y6, Y7, 32)
	VMOVUPD Y4, 0(DI)(AX*1)
	VMOVUPD Y6, 32(DI)(AX*1)
	ADDQ $64, AX
	CMPQ AX, BX
	JLE  quad8

quad4:
	CMPQ AX, DX
	JGE  quadnext
	VMOVUPD 0(DI)(AX*1), Y4
	FOLD4(Y4, Y5, 0)
	VMOVUPD Y4, 0(DI)(AX*1)

quadnext:
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $4, CX
	JMP  quad

single:
	TESTQ CX, CX
	JZ    folded
	MOVQ  0(R8), R11
	IMULQ R10, R11
	ADDQ  SI, R11
	VBROADCASTSD 0(R9), Y0
	XORQ  AX, AX

single4:
	VMOVUPD 0(DI)(AX*1), Y4
	VMULPD  0(R11)(AX*1), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, 0(DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, DX
	JLT     single4
	ADDQ    $8, R8
	ADDQ    $8, R9
	DECQ    CX
	JMP     single

folded:
	VZEROUPPER
	RET

// ROWS4 adds a[r,p]·bcol onto the running sums of four rows: base points at
// a[r0,p0], off is the byte offset of p within the block of four, and R8 /
// R11 hold one and three row strides.
#define ROWS4(base, off, bcol, s0, s1, s2, s3) \
	VBROADCASTSD off(base), Y12; \
	VBROADCASTSD off(base)(R8*1), Y13; \
	VBROADCASTSD off(base)(R8*2), Y14; \
	VBROADCASTSD off(base)(R11*1), Y15; \
	VMULPD bcol, Y12, Y12; \
	VMULPD bcol, Y13, Y13; \
	VMULPD bcol, Y14, Y14; \
	VMULPD bcol, Y15, Y15; \
	VADDPD Y12, s0, s0; \
	VADDPD Y13, s1, s1; \
	VADDPD Y14, s2, s2; \
	VADDPD Y15, s3, s3

// func transBTilesAVX2(dst, a, b *float64, k4, k, n, tiles int)
TEXT ·transBTilesAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ k4+24(FP), R15
	MOVQ k+32(FP), R8
	MOVQ n+40(FP), R9
	MOVQ tiles+48(FP), DX
	SHLQ $3, R15          // bytes of a row the vector loop consumes
	SHLQ $3, R8           // bytes per a / b row
	SHLQ $3, R9           // bytes per dst row
	LEAQ (R8)(R8*2), R11  // three a / b rows
	LEAQ (R9)(R9*2), R13  // three dst rows
	LEAQ (SI)(R8*4), R12  // a rows 4..7

tile:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   R15, CX
	TESTQ  CX, CX
	JZ     store

block:
	// Four b rows × four p, transposed so each register holds one p across
	// the tile's four output columns.
	VMOVUPD (BX), Y8
	VMOVUPD (BX)(R8*1), Y9
	VMOVUPD (BX)(R8*2), Y10
	VMOVUPD (BX)(R11*1), Y11
	VUNPCKLPD Y9, Y8, Y12
	VUNPCKHPD Y9, Y8, Y13
	VUNPCKLPD Y11, Y10, Y14
	VUNPCKHPD Y11, Y10, Y15
	VPERM2F128 $0x20, Y14, Y12, Y8
	VPERM2F128 $0x20, Y15, Y13, Y9
	VPERM2F128 $0x31, Y14, Y12, Y10
	VPERM2F128 $0x31, Y15, Y13, Y11
	ROWS4(SI, 0, Y8, Y0, Y1, Y2, Y3)
	ROWS4(R12, 0, Y8, Y4, Y5, Y6, Y7)
	ROWS4(SI, 8, Y9, Y0, Y1, Y2, Y3)
	ROWS4(R12, 8, Y9, Y4, Y5, Y6, Y7)
	ROWS4(SI, 16, Y10, Y0, Y1, Y2, Y3)
	ROWS4(R12, 16, Y10, Y4, Y5, Y6, Y7)
	ROWS4(SI, 24, Y11, Y0, Y1, Y2, Y3)
	ROWS4(R12, 24, Y11, Y4, Y5, Y6, Y7)
	ADDQ $32, BX
	ADDQ $32, SI
	ADDQ $32, R12
	SUBQ $32, CX
	JNZ  block

store:
	LEAQ    (DI)(R9*4), AX
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R9*1)
	VMOVUPD Y2, (DI)(R9*2)
	VMOVUPD Y3, (DI)(R13*1)
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, (AX)(R9*1)
	VMOVUPD Y6, (AX)(R9*2)
	VMOVUPD Y7, (AX)(R13*1)
	ADDQ $32, DI
	SUBQ R15, SI          // back to p = 0
	SUBQ R15, R12
	SUBQ R15, BX
	LEAQ (BX)(R8*4), BX   // next four b rows
	DECQ DX
	JNZ  tile
	VZEROUPPER
	RET

// PAIRS8 is eight independent multiply-then-add pairs, one per running sum.
#define PAIRS8 \
	VMULPD Y8, Y9, Y10; \
	VMULPD Y8, Y9, Y11; \
	VMULPD Y8, Y9, Y12; \
	VMULPD Y8, Y9, Y13; \
	VADDPD Y10, Y0, Y0; \
	VADDPD Y11, Y1, Y1; \
	VADDPD Y12, Y2, Y2; \
	VADDPD Y13, Y3, Y3; \
	VMULPD Y8, Y9, Y10; \
	VMULPD Y8, Y9, Y11; \
	VMULPD Y8, Y9, Y12; \
	VMULPD Y8, Y9, Y13; \
	VADDPD Y10, Y4, Y4; \
	VADDPD Y11, Y5, Y5; \
	VADDPD Y12, Y6, Y6; \
	VADDPD Y13, Y7, Y7

// func machinePeakAVX2(iters int)
TEXT ·machinePeakAVX2(SB), NOSPLIT, $0-8
	MOVQ iters+0(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9

peak:
	PAIRS8
	PAIRS8
	DECQ CX
	JNZ  peak
	VZEROUPPER
	RET
