cp_a1 <- function(x) x + 1
cp_a2 <- function(x) x + 2
cp_a3 <- function(x) x + 3
cp_a4 <- function(x) x * 2
cp_apply <- function(g, x) g(x)
call_poly_run <- function(n) {
  s <- 0
  i <- 0
  while (i < n) {
    s <- cp_apply(cp_a1, s)
    s <- cp_apply(cp_a2, s) - s + i
    s <- cp_apply(cp_a3, s) - s
    s <- cp_apply(cp_a4, s) - s
    i <- i + 1
  }
  s
}
