cn_inc <- function(x) x + 1
cn_twice <- function(x) {
  a <- cn_inc(x)
  cn_inc(a)
}
call_nested_run <- function(n) {
  s <- 0
  i <- 0
  while (i < n) {
    s <- s + cn_twice(i)
    i <- i + 1
  }
  s
}
